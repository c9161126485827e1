#include "conference/conference.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "conference/telemetry.h"
#include "core/session.h"
#include "obs/obs.h"
#include "runtime/loop_group.h"
#include "runtime/shared_link.h"
#include "util/clock.h"
#include "util/fnv1a.h"

namespace livo::conference {
namespace {

void Validate(const std::vector<ParticipantSpec>& specs,
              const ConferenceOptions& options) {
  const int n = static_cast<int>(specs.size());
  if (n < 2) {
    throw std::invalid_argument(
        "RunConference: a conference needs at least 2 participants, got " +
        std::to_string(n));
  }
  if (n > kMaxParties) {
    throw std::invalid_argument(
        "RunConference: admission control rejects " + std::to_string(n) +
        " parties (at most " + std::to_string(kMaxParties) + ")");
  }
  for (const ParticipantSpec& spec : specs) {
    if (spec.sequence == nullptr) {
      throw std::invalid_argument(
          "RunConference: participant spec without a capture sequence");
    }
  }
  if (options.regions > 1) {
    if (options.regions > n) {
      throw std::invalid_argument(
          "RunConference: more regions (" + std::to_string(options.regions) +
          ") than participants (" + std::to_string(n) + ")");
    }
    if (options.uplink_mode == LinkMode::kShared ||
        options.downlink_mode == LinkMode::kShared) {
      // A shared access bottleneck couples the whole roster at event
      // fidelity; it cannot be split across loop-group domains.
      throw std::invalid_argument(
          "RunConference: a cascaded conference requires private link modes");
    }
    if (!(options.relay_hop_delay_ms > 0.0) ||
        !(options.relay_rate_mbps > 0.0)) {
      throw std::invalid_argument(
          "RunConference: cascade needs positive relay rate and hop delay");
    }
  }
}

// Element-wise sum of per-edge SFU counters; with one (direct) SFU this
// degenerates to a copy.
void Accumulate(SfuStats& into, const SfuStats& s) {
  into.frames_in += s.frames_in;
  into.pairs_completed += s.pairs_completed;
  into.pairs_forwarded += s.pairs_forwarded;
  into.pairs_dropped_budget += s.pairs_dropped_budget;
  into.pairs_dropped_congestion += s.pairs_dropped_congestion;
  into.pairs_dropped_awaiting_key += s.pairs_dropped_awaiting_key;
  into.pairs_dropped_layer_incomplete += s.pairs_dropped_layer_incomplete;
  into.pairs_evicted_incomplete += s.pairs_evicted_incomplete;
  into.pairs_salvaged += s.pairs_salvaged;
  into.keyframe_relays += s.keyframe_relays;
  into.layer_switches_up += s.layer_switches_up;
  into.layer_switches_down += s.layer_switches_down;
  if (into.forwarded_by_layer.size() < s.forwarded_by_layer.size()) {
    into.forwarded_by_layer.resize(s.forwarded_by_layer.size(), 0);
  }
  for (std::size_t q = 0; q < s.forwarded_by_layer.size(); ++q) {
    into.forwarded_by_layer[q] += s.forwarded_by_layer[q];
  }
}

}  // namespace

ConferenceResult RunConference(const std::vector<ParticipantSpec>& specs,
                               const ConferenceOptions& options) {
  Validate(specs, options);
  obs::AutoInitFromEnv();
  const int n = static_cast<int>(specs.size());

  // Run boundary: each conference gets a fresh ledger and fresh series
  // rings, so the exported telemetry describes exactly one run.
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  if (ledger.enabled()) ledger.Reset();
  if (obs::TimeSeriesEnabled()) obs::Registry::Get().ResetTimeSeries();

  // One loop-group domain per coupling unit: a direct conference is a
  // single domain (everything interacts at event fidelity through the one
  // SFU); a cascade gets one domain per region plus one for the root
  // relay, with all inter-region traffic on CrossLoopChannels whose min
  // delay is the relay hop — also the group's lookahead window.
  const int regions = options.regions > 1 ? options.regions : 1;
  const bool cascaded = regions > 1;
  const int domains = cascaded ? regions + 1 : 1;
  const int shards = std::clamp(options.shards, 1, domains);
  runtime::LoopGroup group(shards, cascaded
                               ? options.relay_hop_delay_ms
                               : runtime::LoopGroup::kDefaultWindowMs);

  ConferenceResult result;
  result.scheme = kSchemeName;
  result.regions = regions;
  result.shards = shards;
  result.fec = options.fec.enabled;

  for (const ParticipantSpec& spec : specs) {
    const double span = spec.sequence->frames.size() * 1000.0 /
                        spec.config.fps;
    result.duration_ms = std::max(result.duration_ms, span);
  }
  const double horizon_ms = result.duration_ms + core::kDrainMs;

  std::vector<int> region_of(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    region_of[static_cast<std::size_t>(i)] = RegionOf(i, n, regions);
  }

  // A shared bottleneck carries one flow per participant, each warm-started
  // at its fair share; `shared_up` / `shared_down` stay flow-less (null
  // `shared`) on private access links.
  std::unique_ptr<runtime::SharedLink> shared_uplink;
  runtime::ReplayLink shared_up;
  if (options.uplink_mode == LinkMode::kShared) {
    shared_uplink = std::make_unique<runtime::SharedLink>(
        options.shared_uplink_trace.Replayed(
            core::ReplayOptions::trace_time_accel, 0.0),
        options.shared_uplink_config, "runtime.shared_uplink");
    shared_up = runtime::ReplayLink{
        .trace = &options.shared_uplink_trace,
        .bandwidth_scale = options.shared_uplink_config.bandwidth_scale,
        .shared = shared_uplink.get(),
        .flows = n};
  }
  std::unique_ptr<runtime::SharedLink> shared_downlink;
  runtime::ReplayLink shared_down;
  if (options.downlink_mode == LinkMode::kShared) {
    shared_downlink = std::make_unique<runtime::SharedLink>(
        options.shared_downlink_trace.Replayed(
            core::ReplayOptions::trace_time_accel, 0.0),
        options.shared_downlink_config, "runtime.shared_downlink");
    shared_down = runtime::ReplayLink{
        .trace = &options.shared_downlink_trace,
        .bandwidth_scale = options.shared_downlink_config.bandwidth_scale,
        .shared = shared_downlink.get(),
        .flows = n};
  }

  // One access link: the flow of a shared bottleneck, or else a private
  // link replaying the participant's own trace. The conference-level FEC
  // switch turns on parity + deadline-aware repair on every one.
  const auto access_link = [&options](net::ChannelConfig cfg,
                                      std::string obs_label,
                                      const runtime::ReplayLink& shared,
                                      const sim::BandwidthTrace& own_trace,
                                      double own_offset_ms) {
    cfg.obs_label = std::move(obs_label);
    if (options.fec.enabled) cfg.enable_fec = true;
    const runtime::ReplayLink link =
        shared.shared != nullptr
            ? shared
            : runtime::ReplayLink{
                  .trace = &own_trace,
                  .bandwidth_scale = options.bandwidth_scale,
                  .accel = core::ReplayOptions::trace_time_accel,
                  .offset_ms = own_offset_ms};
    return link.MakeChannel(std::move(cfg));
  };

  // One SFU per region (a direct conference is one region). Every edge
  // sees the full roster; remote participants register as nullptr.
  std::vector<std::unique_ptr<SfuActor>> sfus;
  sfus.reserve(static_cast<std::size_t>(regions));
  for (int r = 0; r < regions; ++r) {
    sfus.push_back(std::make_unique<SfuActor>(group.loop(r), specs, options,
                                              horizon_ms));
  }
  if (!cascaded) {
    sfus[0]->SetSharedLinks(shared_uplink.get(), shared_downlink.get());
  }

  // Cascade wiring. Channel creation order is fixed by the workload (all
  // up channels, then all down channels, in region order) so channel ids
  // — the cross-loop tie-break — never depend on the shard count.
  std::unique_ptr<RootRelay> root;
  std::vector<std::unique_ptr<EdgeRelay>> edge_relays;
  if (cascaded) {
    std::vector<runtime::CrossLoopChannel*> up(
        static_cast<std::size_t>(regions));
    std::vector<runtime::CrossLoopChannel*> down(
        static_cast<std::size_t>(regions));
    for (int r = 0; r < regions; ++r) {
      up[static_cast<std::size_t>(r)] =
          group.CreateChannel(r, regions, options.relay_hop_delay_ms);
    }
    for (int r = 0; r < regions; ++r) {
      down[static_cast<std::size_t>(r)] =
          group.CreateChannel(regions, r, options.relay_hop_delay_ms);
    }
    root = std::make_unique<RootRelay>(region_of, options, n, regions);
    edge_relays.reserve(static_cast<std::size_t>(regions));
    for (int r = 0; r < regions; ++r) {
      edge_relays.push_back(std::make_unique<EdgeRelay>(
          r, region_of, options, n, up[static_cast<std::size_t>(r)],
          root.get(), sfus[static_cast<std::size_t>(r)].get()));
    }
    for (int r = 0; r < regions; ++r) {
      root->AttachRegion(r, down[static_cast<std::size_t>(r)],
                         sfus[static_cast<std::size_t>(r)].get(),
                         edge_relays[static_cast<std::size_t>(r)].get());
      sfus[static_cast<std::size_t>(r)]->ConfigureCascade(
          edge_relays[static_cast<std::size_t>(r)].get(), r);
    }
  }

  std::vector<std::unique_ptr<ParticipantActor>> participants;
  participants.reserve(specs.size());
  for (int i = 0; i < n; ++i) {
    const ParticipantSpec& spec = specs[static_cast<std::size_t>(i)];
    const int region = region_of[static_cast<std::size_t>(i)];
    runtime::EventLoop& loop = group.loop(region);

    // Uplink before downlink: a SharedLink numbers flows in connect order.
    const std::string obs_prefix = "participant" + std::to_string(i);
    std::unique_ptr<net::VideoChannel> uplink =
        access_link(options.uplink_channel, obs_prefix + ".uplink", shared_up,
                    spec.uplink_trace, spec.uplink_trace_offset_ms);
    std::unique_ptr<net::VideoChannel> downlink = access_link(
        options.downlink_channel, obs_prefix + ".downlink", shared_down,
        spec.downlink_trace, spec.downlink_trace_offset_ms);

    participants.push_back(std::make_unique<ParticipantActor>(
        loop, i, specs, options, std::move(uplink), std::move(downlink),
        horizon_ms));
    participants.back()->SetSfu(sfus[static_cast<std::size_t>(region)].get());
    for (int r = 0; r < regions; ++r) {
      sfus[static_cast<std::size_t>(r)]->AddParticipant(
          r == region ? participants.back().get() : nullptr);
    }
  }

  for (auto& p : participants) p->Start();
  for (auto& sfu : sfus) sfu->Start();

  const util::Stopwatch wall;
  group.Run();
  result.wall_ms = wall.ElapsedMs();
  const double end_ms = group.MaxDispatchMs();

  if (ledger.enabled()) ledger.FinalizeRun(end_ms);

  result.participants.reserve(participants.size());
  for (auto& p : participants) result.participants.push_back(p->TakeResult());
  for (auto& sfu : sfus) {
    std::vector<AllocationAuditRow> audits = sfu->TakeAudits();
    result.audits.insert(result.audits.end(),
                         std::make_move_iterator(audits.begin()),
                         std::make_move_iterator(audits.end()));
    Accumulate(result.sfu, sfu->stats());
  }
  for (auto& relay : edge_relays) result.relay += relay->stats();
  if (root) result.relay += root->stats();
  result.events_dispatched = group.events_dispatched();
  result.events_scheduled = group.events_scheduled();
  result.virtual_ms = end_ms;

  LIVO_LOG(Info) << "conference " << result.scheme << ": " << n
                 << " parties in " << regions << " region(s) on " << shards
                 << " shard(s), " << result.sfu.pairs_forwarded
                 << " pair deliveries (" << result.sfu.pairs_dropped_budget
                 << " budget / " << result.sfu.pairs_dropped_congestion
                 << " congestion / " << result.sfu.pairs_dropped_awaiting_key
                 << " keywait / " << result.sfu.pairs_dropped_layer_incomplete
                 << " layer drops), " << result.events_dispatched
                 << " events over " << result.virtual_ms << " virtual ms in "
                 << result.wall_ms << " wall ms";

  // Trace export, plus the single-file telemetry JSONL livo_report ingests
  // (run summary + per-stream records + audits + ledger hops + series).
  const auto artifacts = obs::DumpSessionArtifacts(
      "conference_" + result.scheme + "_" + std::to_string(n) + "p");
  if (artifacts && ledger.enabled()) {
    const std::string& trace_path = artifacts->trace_path;
    const std::string suffix = ".trace.json";
    const std::string stem =
        trace_path.size() > suffix.size() &&
                trace_path.compare(trace_path.size() - suffix.size(),
                                   suffix.size(), suffix) == 0
            ? trace_path.substr(0, trace_path.size() - suffix.size())
            : trace_path;
    const std::string telemetry_path = stem + ".telemetry.jsonl";
    std::ofstream out(telemetry_path);
    if (out) {
      WriteConferenceTelemetry(out, result);
      LIVO_LOG(Info) << "conference telemetry -> " << telemetry_path;
    } else {
      LIVO_LOG(Error) << "cannot write telemetry file " << telemetry_path;
    }
  }
  return result;
}

std::uint64_t ConferenceResult::Fingerprint() const {
  util::Fnv1a h;
  h.Mix(scheme);
  h.Mix(static_cast<std::uint64_t>(participants.size()));
  for (const ParticipantResult& p : participants) {
    h.Mix(static_cast<std::uint64_t>(p.index));
    h.Mix(static_cast<std::uint64_t>(p.frames_sent));
    h.Mix(static_cast<std::uint64_t>(p.bytes_sent));
    h.Mix(static_cast<std::uint64_t>(p.congestion_skips));
    h.Mix(p.mean_split);
    h.Mix(p.mean_target_bps);
    // Loss-resilience counters are virtual-time deterministic (seeded
    // loss, virtual-clock repair deadlines), so they belong in the
    // contract: a rerun, reshard, or codec-thread change that shifts any
    // parity/recovery/repair decision must change the fingerprint.
    h.Mix(static_cast<std::uint64_t>(p.uplink_parity_bytes));
    h.Mix(static_cast<std::uint64_t>(p.uplink_keyframe_requests));
    h.Mix(static_cast<std::uint64_t>(p.uplink_nacks));
    h.Mix(static_cast<std::uint64_t>(p.uplink_fragments_recovered));
    h.Mix(static_cast<std::uint64_t>(p.downlink_parity_bytes));
    h.Mix(static_cast<std::uint64_t>(p.downlink_bytes_sent));
    h.Mix(static_cast<std::uint64_t>(p.fragments_recovered));
    h.Mix(static_cast<std::uint64_t>(p.repairs_scheduled));
    h.Mix(static_cast<std::uint64_t>(p.repairs_abandoned));
    h.Mix(static_cast<std::uint64_t>(p.nacks_sent));
    for (const RemoteStreamResult& stream : p.streams) {
      h.Mix(static_cast<std::uint64_t>(stream.origin));
      h.Mix(static_cast<std::uint64_t>(stream.pairs_forwarded));
      h.Mix(static_cast<std::uint64_t>(stream.pairs_rendered));
      h.Mix(stream.fps);
      h.Mix(stream.stall_rate);
      h.Mix(stream.mean_latency_ms);
      h.Mix(stream.stall_aware_latency_ms);
      h.Mix(static_cast<std::uint64_t>(stream.layer_switches));
      h.Mix(static_cast<std::uint64_t>(stream.keyframe_requests));
      h.Mix(static_cast<std::uint64_t>(stream.nacks));
      h.Mix(static_cast<std::uint64_t>(stream.fragments_recovered));
      for (const std::size_t n : stream.forwarded_by_layer) {
        h.Mix(static_cast<std::uint64_t>(n));
      }
      for (const StreamFrameRecord& rec : stream.frames) {
        h.Mix(static_cast<std::uint64_t>(rec.frame_index));
        h.Mix(rec.forwarded);
        h.Mix(rec.rendered);
        h.Mix(rec.marker_verified);
        h.Mix(rec.capture_time_ms);
        h.Mix(rec.forward_time_ms);
        h.Mix(rec.render_time_ms);
        h.Mix(rec.latency_ms);
        h.Mix(static_cast<std::uint64_t>(rec.bytes));
        h.Mix(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(rec.layer)));
      }
    }
  }
  for (const AllocationAuditRow& row : audits) {
    h.Mix(row.start_ms);
    h.Mix(static_cast<std::uint64_t>(row.subscriber));
    h.Mix(row.budget_bytes);
    h.Mix(row.credit_bytes);
    h.Mix(row.forwarded_bytes);
    for (const double share : row.shares) h.Mix(share);
    for (const std::size_t n : row.forwarded_by_layer) {
      h.Mix(static_cast<std::uint64_t>(n));
    }
  }
  h.Mix(static_cast<std::uint64_t>(sfu.frames_in));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_completed));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_forwarded));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_dropped_budget));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_dropped_congestion));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_dropped_awaiting_key));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_dropped_layer_incomplete));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_evicted_incomplete));
  h.Mix(static_cast<std::uint64_t>(sfu.pairs_salvaged));
  h.Mix(static_cast<std::uint64_t>(sfu.keyframe_relays));
  h.Mix(static_cast<std::uint64_t>(sfu.layer_switches_up));
  h.Mix(static_cast<std::uint64_t>(sfu.layer_switches_down));
  for (const std::size_t n : sfu.forwarded_by_layer) {
    h.Mix(static_cast<std::uint64_t>(n));
  }
  h.Mix(static_cast<std::uint64_t>(regions));
  h.Mix(static_cast<std::uint64_t>(relay.ladders_offered));
  h.Mix(static_cast<std::uint64_t>(relay.prefixes_admitted));
  h.Mix(static_cast<std::uint64_t>(relay.prefixes_dropped_budget));
  h.Mix(static_cast<std::uint64_t>(relay.layers_relayed));
  h.Mix(relay.relay_bytes);
  h.Mix(static_cast<std::uint64_t>(relay.pli_relays));
  h.Mix(static_cast<std::uint64_t>(relay.demand_reports));
  h.Mix(static_cast<std::uint64_t>(events_dispatched));
  h.Mix(virtual_ms);
  return h.value();
}

}  // namespace livo::conference
