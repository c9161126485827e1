#include "conference/conference.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "conference/telemetry.h"
#include "obs/obs.h"
#include "runtime/loop_group.h"
#include "runtime/shared_link.h"
#include "util/clock.h"
#include "util/fnv1a.h"

namespace livo::conference {
namespace {

void Describe(std::ostream& os, const net::LinkConfig& l) {
  os << l.propagation_delay_ms << ',' << l.max_queue_delay_ms << ','
     << l.loss_rate << ',' << l.bandwidth_scale << ',' << l.seed;
  if (l.loss_model != net::LossModel::kIid) {
    // Appended only for non-iid models so existing cache entries keep
    // their keys (same gating precedent as the cascade block below).
    os << "|lm:" << net::LossModelName(l.loss_model) << ',' << l.ge_p_good_bad
       << ',' << l.ge_p_bad_good << ',' << l.ge_bad_loss;
  }
}

void Describe(std::ostream& os, const net::ChannelConfig& c) {
  Describe(os, c.link);
  os << "|gcc:" << c.gcc.initial_bps << ',' << c.gcc.min_bps << ','
     << c.gcc.max_bps << "|ch:" << c.jitter_buffer_ms << ','
     << c.feedback_interval_ms << ',' << c.enable_nack;
  if (c.enable_fec) {
    os << "|fec:" << c.fec_redundancy_cap;
  }
}

void Describe(std::ostream& os, const sim::BandwidthTrace& t) {
  os << t.name << ',' << t.mbps.size() << ',' << t.sample_interval_ms << ','
     << t.MeanMbps() << ',' << t.MinMbps() << ',' << t.MaxMbps();
}

void Describe(std::ostream& os, const core::LiVoConfig& c) {
  // codec_threads intentionally omitted: encoded bytes are contractually
  // thread-count-invariant (tests assert it), so it must not split cache
  // entries.
  os << c.layout.canvas_width() << 'x' << c.layout.canvas_height() << '/'
     << c.layout.tile_height() << ',' << c.fps << ',' << c.enable_culling
     << ',' << c.enable_adaptation << ',' << c.dynamic_split << ','
     << c.split.initial << ',' << c.split.min << ',' << c.split.max << ','
     << c.split.step << ',' << c.split.epsilon << ',' << c.split.update_every
     << ',' << c.predictor.guard_band_m;
}

void Validate(const std::vector<ParticipantSpec>& specs,
              const ConferenceOptions& options) {
  const int n = static_cast<int>(specs.size());
  if (n < 2) {
    throw std::invalid_argument(
        "RunConference: a conference needs at least 2 participants, got " +
        std::to_string(n));
  }
  if (n > options.max_parties) {
    throw std::invalid_argument(
        "RunConference: admission control rejects " + std::to_string(n) +
        " parties (max_parties = " + std::to_string(options.max_parties) +
        ")");
  }
  for (const ParticipantSpec& spec : specs) {
    if (spec.sequence == nullptr) {
      throw std::invalid_argument(
          "RunConference: participant spec without a capture sequence");
    }
  }
  // The SFU advances its allocation clock by this step until it passes
  // the current event; a step that is not positive never gets there.
  if (!(options.allocation_interval_ms > 0.0)) {
    throw std::invalid_argument(
        "RunConference: allocation_interval_ms must be positive");
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
  result.scheme = options.scheme_name;
  result.regions = regions;
  result.shards = shards;
  result.fec = options.fec.enabled;

  // One policy, every access link: the conference-level FEC switch turns
  // on parity + deadline-aware repair for each channel built below.
  const auto apply_fec = [&options](net::ChannelConfig& cfg) {
    if (!options.fec.enabled) return;
    cfg.enable_fec = true;
    cfg.fec_redundancy_cap = options.fec.redundancy_cap;
  };

  for (const ParticipantSpec& spec : specs) {
    const double span = spec.sequence->frames.size() * 1000.0 /
                        spec.config.fps;
    result.duration_ms = std::max(result.duration_ms, span);
  }
  const double horizon_ms = result.duration_ms + 600.0;

  std::vector<int> region_of(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    region_of[static_cast<std::size_t>(i)] = RegionOf(i, n, regions);
  }

  std::unique_ptr<runtime::SharedLink> shared_uplink;
  if (options.uplink_mode == LinkMode::kShared) {
    shared_uplink = std::make_unique<runtime::SharedLink>(
        options.shared_uplink_trace.Replayed(options.trace_time_accel, 0.0),
        options.shared_uplink_config, "runtime.shared_uplink");
  }
  std::unique_ptr<runtime::SharedLink> shared_downlink;
  if (options.downlink_mode == LinkMode::kShared) {
    shared_downlink = std::make_unique<runtime::SharedLink>(
        options.shared_downlink_trace.Replayed(options.trace_time_accel, 0.0),
        options.shared_downlink_config, "runtime.shared_downlink");
  }

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

    const std::string obs_prefix = "participant" + std::to_string(i);
    std::unique_ptr<net::VideoChannel> uplink;
    if (shared_uplink) {
      net::ChannelConfig cfg = options.uplink_channel;
      cfg.obs_label = obs_prefix + ".uplink";
      apply_fec(cfg);
      cfg.link.bandwidth_scale =
          options.shared_uplink_config.bandwidth_scale;
      cfg.gcc.initial_bps = options.shared_uplink_trace.MeanMbps() *
                            options.shared_uplink_config.bandwidth_scale *
                            1e6 * 0.8 / n;
      uplink = shared_uplink->Connect(cfg);
    } else {
      net::ChannelConfig cfg = options.uplink_channel;
      cfg.obs_label = obs_prefix + ".uplink";
      apply_fec(cfg);
      cfg.link.bandwidth_scale = options.bandwidth_scale;
      cfg.gcc.initial_bps =
          spec.uplink_trace.MeanMbps() * options.bandwidth_scale * 1e6 * 0.8;
      uplink = std::make_unique<net::VideoChannel>(
          spec.uplink_trace.Replayed(options.trace_time_accel,
                                     spec.uplink_trace_offset_ms),
          cfg);
    }

    std::unique_ptr<net::VideoChannel> downlink;
    if (shared_downlink) {
      net::ChannelConfig cfg = options.downlink_channel;
      cfg.obs_label = obs_prefix + ".downlink";
      apply_fec(cfg);
      cfg.link.bandwidth_scale =
          options.shared_downlink_config.bandwidth_scale;
      cfg.gcc.initial_bps = options.shared_downlink_trace.MeanMbps() *
                            options.shared_downlink_config.bandwidth_scale *
                            1e6 * 0.8 / n;
      downlink = shared_downlink->Connect(cfg);
    } else {
      net::ChannelConfig cfg = options.downlink_channel;
      cfg.obs_label = obs_prefix + ".downlink";
      apply_fec(cfg);
      cfg.link.bandwidth_scale = options.bandwidth_scale;
      cfg.gcc.initial_bps =
          spec.downlink_trace.MeanMbps() * options.bandwidth_scale * 1e6 *
          0.8;
      downlink = std::make_unique<net::VideoChannel>(
          spec.downlink_trace.Replayed(options.trace_time_accel,
                                       spec.downlink_trace_offset_ms),
          cfg);
    }

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
    std::vector<AllocationAuditRow> audits = sfu->TakeAudits(end_ms);
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
      WriteConferenceTelemetry(out, result, options.allocation_interval_ms);
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

std::string ConferenceCacheKey(const std::vector<ParticipantSpec>& specs,
                               const ConferenceOptions& options) {
  std::ostringstream os;
  os.precision(17);
  os << "confv2|" << specs.size() << '|';
  for (const ParticipantSpec& spec : specs) {
    os << spec.sequence->spec.name << ',' << spec.sequence->frames.size()
       << ',' << spec.sequence->rig.size() << ','
       << sim::StyleName(spec.user_trace.style) << ','
       << spec.user_trace.poses.size() << "|up:";
    Describe(os, spec.uplink_trace);
    os << '@' << spec.uplink_trace_offset_ms << "|down:";
    Describe(os, spec.downlink_trace);
    os << '@' << spec.downlink_trace_offset_ms << "|cfg:";
    Describe(os, spec.config);
    os << ';';
  }
  os << "|upch:";
  Describe(os, options.uplink_channel);
  os << "|downch:";
  Describe(os, options.downlink_channel);
  os << "|mode:" << LinkModeName(options.uplink_mode) << '/'
     << LinkModeName(options.downlink_mode);
  if (options.uplink_mode == LinkMode::kShared) {
    os << "|shup:";
    Describe(os, options.shared_uplink_trace);
    Describe(os, options.shared_uplink_config);
  }
  if (options.downlink_mode == LinkMode::kShared) {
    os << "|shdown:";
    Describe(os, options.shared_downlink_trace);
    Describe(os, options.shared_downlink_config);
  }
  os << "|ladder:" << options.ladder_layers << ',' << options.ladder_qp_step;
  if (options.fec.enabled) {
    // Appended only when FEC is on so existing entries keep their keys.
    os << "|fec:" << options.fec.redundancy_cap << ',' << options.fec.loss_gain
       << ',' << options.fec.utility_floor;
  }
  if (options.regions > 1) {
    // Appended only for cascades so direct entries keep their keys.
    // options.shards is deliberately absent: results are shard-invariant.
    os << "|cascade:" << options.regions << ',' << options.relay_rate_mbps
       << ',' << options.relay_hop_delay_ms;
  }
  os << '|' << options.bandwidth_scale << ',' << options.trace_time_accel
     << ',' << options.sender_pipeline_delay_ms << ','
     << options.allocation_interval_ms << ','
     << options.burst_credit_intervals << ',' << options.share_floor << ','
     << options.forward_split.initial << ',' << options.forward_split.step
     << ',' << options.keyframe_relay_throttle_ms << ','
     << options.max_parties << ','
     << options.seats.radius_m << ',' << options.seats.samples_per_axis
     << ',' << options.receiver.voxel_size_m << ','
     << options.receiver.max_pair_lag << ',' << options.scheme_name;

  util::Fnv1a h;
  h.Mix(os.str());
  std::ostringstream key;
  key << specs.size() << "p_" << std::hex << h.value();
  return key.str();
}

}  // namespace livo::conference
