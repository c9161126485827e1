#include "conference/telemetry.h"

#include "obs/ledger.h"
#include "obs/metrics.h"

namespace livo::conference {

using obs::JsonEscape;
using obs::JsonSafe;

void WriteConferenceTelemetry(std::ostream& os, const ConferenceResult& result,
                              double interval_ms) {
  const auto flags = os.flags();
  const auto precision = os.precision(12);

  os << "{\"type\":\"run\",\"scheme\":\"";
  JsonEscape(os, result.scheme);
  os << "\",\"parties\":" << result.participants.size()
     << ",\"virtual_ms\":" << JsonSafe(result.virtual_ms)
     << ",\"duration_ms\":" << JsonSafe(result.duration_ms)
     << ",\"interval_ms\":" << JsonSafe(interval_ms)
     << ",\"events_dispatched\":" << result.events_dispatched
     << ",\"frames_in\":" << result.sfu.frames_in
     << ",\"pairs_completed\":" << result.sfu.pairs_completed
     << ",\"pairs_forwarded\":" << result.sfu.pairs_forwarded
     << ",\"pairs_dropped_budget\":" << result.sfu.pairs_dropped_budget
     << ",\"pairs_dropped_congestion\":"
     << result.sfu.pairs_dropped_congestion
     << ",\"pairs_dropped_awaiting_key\":"
     << result.sfu.pairs_dropped_awaiting_key
     << ",\"pairs_dropped_layer_incomplete\":"
     << result.sfu.pairs_dropped_layer_incomplete
     << ",\"pairs_evicted_incomplete\":"
     << result.sfu.pairs_evicted_incomplete
     << ",\"pairs_salvaged\":" << result.sfu.pairs_salvaged
     << ",\"keyframe_relays\":" << result.sfu.keyframe_relays
     << ",\"layers\":" << result.sfu.forwarded_by_layer.size()
     << ",\"layer_switches_up\":" << result.sfu.layer_switches_up
     << ",\"layer_switches_down\":" << result.sfu.layer_switches_down
     << ",\"forwarded_by_layer\":[";
  bool first_layer = true;
  for (const std::size_t n : result.sfu.forwarded_by_layer) {
    if (!first_layer) os << ",";
    first_layer = false;
    os << n;
  }
  os << "]";
  if (result.fec) {
    // Loss-resilience totals, only on FEC runs (same gating rationale as
    // the cascade block below). Sums over every participant's channels.
    std::size_t up_parity = 0, down_parity = 0, down_bytes = 0;
    std::size_t recovered = 0, scheduled = 0, abandoned = 0, nacks = 0;
    std::size_t plis = 0;
    for (const ParticipantResult& p : result.participants) {
      up_parity += p.uplink_parity_bytes;
      down_parity += p.downlink_parity_bytes;
      down_bytes += p.downlink_bytes_sent;
      recovered += p.fragments_recovered + p.uplink_fragments_recovered;
      scheduled += p.repairs_scheduled;
      abandoned += p.repairs_abandoned;
      nacks += p.nacks_sent + p.uplink_nacks;
      plis += p.uplink_keyframe_requests;
      for (const RemoteStreamResult& s : p.streams) {
        plis += s.keyframe_requests;
      }
    }
    os << ",\"fec\":true,\"uplink_parity_bytes\":" << up_parity
       << ",\"downlink_parity_bytes\":" << down_parity
       << ",\"downlink_bytes\":" << down_bytes
       << ",\"fragments_recovered\":" << recovered
       << ",\"repairs_scheduled\":" << scheduled
       << ",\"repairs_abandoned\":" << abandoned
       << ",\"nack_rounds\":" << nacks << ",\"plis\":" << plis;
  }
  if (result.regions > 1) {
    // Cascade fields only on cascaded runs: direct-run telemetry stays
    // byte-identical to pre-cascade writers.
    os << ",\"regions\":" << result.regions
       << ",\"relay_ladders_offered\":" << result.relay.ladders_offered
       << ",\"relay_prefixes_admitted\":" << result.relay.prefixes_admitted
       << ",\"relay_prefixes_dropped_budget\":"
       << result.relay.prefixes_dropped_budget
       << ",\"relay_layers_relayed\":" << result.relay.layers_relayed
       << ",\"relay_bytes\":" << result.relay.relay_bytes
       << ",\"relay_pli_relays\":" << result.relay.pli_relays
       << ",\"relay_demand_reports\":" << result.relay.demand_reports;
  }
  os << "}\n";

  for (const ParticipantResult& p : result.participants) {
    for (const RemoteStreamResult& stream : p.streams) {
      os << "{\"type\":\"stream\",\"subscriber\":" << p.index
         << ",\"origin\":" << stream.origin
         << ",\"expected\":" << stream.frames.size()
         << ",\"forwarded\":" << stream.pairs_forwarded
         << ",\"rendered\":" << stream.pairs_rendered
         << ",\"fps\":" << JsonSafe(stream.fps)
         << ",\"stall_rate\":" << JsonSafe(stream.stall_rate)
         << ",\"mean_latency_ms\":" << JsonSafe(stream.mean_latency_ms)
         << ",\"stall_aware_latency_ms\":"
         << JsonSafe(stream.stall_aware_latency_ms)
         << ",\"layer_switches\":" << stream.layer_switches
         << ",\"keyframe_requests\":" << stream.keyframe_requests
         << ",\"nacks\":" << stream.nacks
         << ",\"recovered\":" << stream.fragments_recovered
         << ",\"forwarded_by_layer\":[";
      bool first = true;
      for (const std::size_t n : stream.forwarded_by_layer) {
        if (!first) os << ",";
        first = false;
        os << n;
      }
      os << "]}\n";
    }
  }

  for (const AllocationAuditRow& row : result.audits) {
    os << "{\"type\":\"audit\",\"subscriber\":" << row.subscriber
       << ",\"start_ms\":" << JsonSafe(row.start_ms)
       << ",\"budget_bytes\":" << JsonSafe(row.budget_bytes)
       << ",\"credit_bytes\":" << JsonSafe(row.credit_bytes)
       << ",\"forwarded_bytes\":" << JsonSafe(row.forwarded_bytes)
       << ",\"shares\":[";
    bool first = true;
    for (double share : row.shares) {
      if (!first) os << ",";
      first = false;
      os << JsonSafe(share);
    }
    os << "],\"forwarded_by_layer\":[";
    first = true;
    for (const std::size_t n : row.forwarded_by_layer) {
      if (!first) os << ",";
      first = false;
      os << n;
    }
    os << "]}\n";
  }

  obs::FrameLedger::Get().WriteJsonl(os);

  const obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
  for (const obs::TimeSeriesSnapshot& ts : snap.timeseries) {
    if (ts.points.empty()) continue;
    os << "{\"type\":\"timeseries\",\"name\":\"";
    JsonEscape(os, ts.name);
    os << "\",\"grid_ms\":" << JsonSafe(ts.grid_ms)
       << ",\"evicted\":" << ts.evicted << ",\"points\":[";
    bool first = true;
    for (const obs::TimeSeriesPoint& p : ts.points) {
      if (!first) os << ",";
      first = false;
      os << "[" << JsonSafe(p.t_ms) << "," << JsonSafe(p.value) << "]";
    }
    os << "]}\n";
  }

  os.precision(precision);
  os.flags(flags);
}

}  // namespace livo::conference
