// SFU conference benchmark for livo::conference. Sweeps the party size
// N in {2, 4, 8, 16} over two access topologies:
//   * private: every participant owns its uplink and downlink emulator —
//     pure SFU scaling (events/sec, forwarding throughput);
//   * shared: all uplinks contend on one bottleneck and all downlinks on
//     another (capacity scaled by N so the per-party share stays
//     comparable) — the conferencing setting where allocator shares and
//     per-subscriber drops become visible.
// Prints a table per topology. Every point runs its conference, so
// LIVO_TRACE=1 writes telemetry on every invocation.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "conference/conference.h"
#include "conference/topology.h"
#include "obs/metrics.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace {

using namespace livo;

constexpr int kFrames = 12;

sim::ScaleProfile Profile() {
  sim::ScaleProfile profile;
  profile.camera_count = 4;
  profile.camera_width = 48;
  profile.camera_height = 40;
  return profile;
}

// The loss-resilience table runs longer rosters: the loss EWMA, parity
// budget, and repair scheduler need more than a dozen frames of history
// before their effect on PLI / stall rates is measurable.
constexpr int kLossTableFrames = 48;

const sim::CapturedSequence& Sequence(const std::string& name, int frames) {
  static std::map<std::pair<std::string, int>, sim::CapturedSequence> cache;
  auto it = cache.find({name, frames});
  if (it == cache.end()) {
    it = cache
             .emplace(std::make_pair(name, frames),
                      sim::CaptureVideo(name, Profile(), frames))
             .first;
  }
  return it->second;
}

conference::ParticipantSpec SpecFor(int index, int frames) {
  const auto& videos = sim::AllVideos();
  const sim::VideoSpec& video = videos[index % videos.size()];
  const auto style = static_cast<sim::TraceStyle>(index % 3);
  conference::ParticipantSpec spec;
  spec.sequence = &Sequence(video.name, frames);
  spec.user_trace = sim::GenerateUserTrace(video.name, style, frames + 90);
  spec.uplink_trace = sim::MakeTrace2(30.0, 202 + index);
  spec.downlink_trace = sim::MakeTrace2(30.0, 404 + index);
  spec.uplink_trace_offset_ms = 4000.0 * index;
  spec.downlink_trace_offset_ms = 2000.0 * index;
  spec.config.layout =
      image::TileLayout(Profile().camera_count, Profile().camera_width,
                        Profile().camera_height);
  return spec;
}

// Loss knobs shared by every sweep point (all zero-loss by default).
struct LossSetup {
  double rate = 0.0;
  net::LossModel model = net::LossModel::kIid;
  bool fec = false;
};

conference::ConferenceOptions OptionsFor(int n, bool shared, int layers,
                                         int regions, const LossSetup& loss) {
  conference::ConferenceOptions options;
  options.bandwidth_scale = Profile().bandwidth_scale;
  options.ladder_layers = layers;
  for (net::LinkConfig* link :
       {&options.uplink_channel.link, &options.downlink_channel.link,
        &options.shared_uplink_config, &options.shared_downlink_config}) {
    link->loss_rate = loss.rate;
    link->loss_model = loss.model;
  }
  options.fec.enabled = loss.fec;
  // A region needs at least one participant, so small sweep points clamp
  // (RunConference rejects regions > parties outright).
  options.regions = std::min(regions, n);
  // One loop per edge region plus one for the root relay; RunConference
  // clamps, and results are shard-invariant either way.
  options.shards = options.regions > 1 ? options.regions + 1 : 1;
  if (shared) {
    options.uplink_mode = conference::LinkMode::kShared;
    options.downlink_mode = conference::LinkMode::kShared;
    // Each bottleneck carries N flows: scale capacity with N so the
    // per-party share stays comparable across the sweep and the deltas
    // isolate contention (queue coupling, allocator pressure).
    options.shared_uplink_trace = sim::MakeTrace2(30.0, 505);
    options.shared_downlink_trace = sim::MakeTrace2(30.0, 606);
    options.shared_uplink_config.bandwidth_scale =
        Profile().bandwidth_scale * n;
    options.shared_downlink_config.bandwidth_scale =
        Profile().bandwidth_scale * n;
  }
  return options;
}

struct SweepPoint {
  int parties = 0;
  bool shared = false;
  double wall_ms = 0.0;
  double virtual_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double mean_fps = 0.0;
  double mean_stall_rate = 0.0;
  double mean_latency_ms = 0.0;        // delivered-only (survivor-biased)
  double stall_aware_latency_ms = 0.0; // AoI gap over all expected frames
  double share_min = 1.0;  // level-1 allocator share extremes over audits
  double share_max = 0.0;
  std::uint64_t pairs_forwarded = 0;
  std::uint64_t pairs_dropped = 0;
  // Ladder distribution: pair forwards per layer (index 0 = lowest).
  std::vector<std::uint64_t> forwarded_by_layer;
  std::uint64_t layer_switches = 0;  // up + down, over all streams
  double encode_ms = 0.0;  // total sender encode wall-ms across parties
  // Loss-resilience counters (all zero on lossless / FEC-off points).
  std::uint64_t plis = 0;          // keyframe requests, both directions
  std::uint64_t nack_rounds = 0;   // repair rounds, both directions
  std::uint64_t recovered = 0;     // fragments rebuilt from parity
  std::uint64_t repairs_abandoned = 0;
  std::uint64_t parity_bytes = 0;  // uplink + downlink parity wire bytes
  std::uint64_t wire_bytes = 0;    // uplink + downlink total wire bytes

  // PLIs per virtual second across the whole conference.
  double PliRate() const {
    return virtual_ms > 0.0 ? 1000.0 * static_cast<double>(plis) / virtual_ms
                            : 0.0;
  }
  // Parity wire bytes over media wire bytes (the redundancy the run
  // actually spent; bounded by the policy's redundancy cap).
  double ParityOverhead() const {
    const std::uint64_t media = wire_bytes - std::min(wire_bytes, parity_bytes);
    return media > 0 ? static_cast<double>(parity_bytes) /
                           static_cast<double>(media)
                     : 0.0;
  }
};

std::string LayerList(const SweepPoint& p) {
  std::string out;
  for (std::size_t q = 0; q < p.forwarded_by_layer.size(); ++q) {
    if (q) out += "/";
    out += std::to_string(p.forwarded_by_layer[q]);
  }
  return out;
}

SweepPoint RunPoint(int n, bool shared, int layers, int regions,
                    const LossSetup& loss, int frames = kFrames) {
  std::vector<conference::ParticipantSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) specs.push_back(SpecFor(i, frames));
  const conference::ConferenceOptions options =
      OptionsFor(n, shared, layers, regions, loss);

  SweepPoint point;
  point.parties = n;
  point.shared = shared;

  // Delta of the cumulative sender-encode histogram isolates this run's
  // encode wall time even though the registry spans the whole sweep.
  const double encode_before =
      obs::Registry::Get().GetHistogram("sender.encode_ms").sum();
  const conference::ConferenceResult result =
      conference::RunConference(specs, options);
  point.encode_ms =
      obs::Registry::Get().GetHistogram("sender.encode_ms").sum() -
      encode_before;

  point.wall_ms = result.wall_ms;
  point.virtual_ms = result.virtual_ms;
  point.events = result.events_dispatched;
  const double wall_s = result.wall_ms / 1000.0;
  point.events_per_sec = wall_s > 0 ? result.events_dispatched / wall_s : 0;
  std::size_t streams = 0;
  for (const auto& participant : result.participants) {
    point.plis += participant.uplink_keyframe_requests;
    point.nack_rounds +=
        participant.nacks_sent + participant.uplink_nacks;
    point.recovered += participant.fragments_recovered +
                       participant.uplink_fragments_recovered;
    point.repairs_abandoned += participant.repairs_abandoned;
    point.parity_bytes += participant.uplink_parity_bytes +
                          participant.downlink_parity_bytes;
    point.wire_bytes +=
        participant.bytes_sent + participant.downlink_bytes_sent;
    for (const auto& stream : participant.streams) {
      point.mean_fps += stream.fps;
      point.mean_stall_rate += stream.stall_rate;
      point.mean_latency_ms += stream.mean_latency_ms;
      point.stall_aware_latency_ms += stream.stall_aware_latency_ms;
      point.layer_switches += stream.layer_switches;
      point.plis += stream.keyframe_requests;
      ++streams;
    }
  }
  if (streams > 0) {
    point.mean_fps /= static_cast<double>(streams);
    point.mean_stall_rate /= static_cast<double>(streams);
    point.mean_latency_ms /= static_cast<double>(streams);
    point.stall_aware_latency_ms /= static_cast<double>(streams);
  }
  point.forwarded_by_layer.assign(result.sfu.forwarded_by_layer.begin(),
                                  result.sfu.forwarded_by_layer.end());
  for (const auto& row : result.audits) {
    for (double share : row.shares) {
      point.share_min = std::min(point.share_min, share);
      point.share_max = std::max(point.share_max, share);
    }
  }
  if (result.audits.empty()) point.share_min = 0.0;
  point.pairs_forwarded = result.sfu.pairs_forwarded;
  point.pairs_dropped = result.sfu.pairs_dropped_budget +
                        result.sfu.pairs_dropped_congestion +
                        result.sfu.pairs_dropped_awaiting_key +
                        result.sfu.pairs_dropped_layer_incomplete;
  return point;
}

void PrintSweep(const std::string& title,
                const std::vector<SweepPoint>& points) {
  bench::PrintHeader("BENCH conference", title);
  bench::PrintRow({"parties", "wall_ms", "events/s", "fps", "stall",
                   "lat_ms", "s_lat", "sh_min", "sh_max", "fwd", "drop",
                   "by_layer", "switch", "enc_ms"});
  for (const auto& p : points) {
    bench::PrintRow(
        {std::to_string(p.parties), bench::Fmt(p.wall_ms, 1),
         bench::Fmt(p.events_per_sec, 0),
         bench::Fmt(p.mean_fps, 2), bench::Fmt(p.mean_stall_rate, 3),
         bench::Fmt(p.mean_latency_ms, 1),
         bench::Fmt(p.stall_aware_latency_ms, 1), bench::Fmt(p.share_min, 3),
         bench::Fmt(p.share_max, 3), std::to_string(p.pairs_forwarded),
         std::to_string(p.pairs_dropped), LayerList(p),
         std::to_string(p.layer_switches), bench::Fmt(p.encode_ms, 1)});
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  // --parties=<n> restricts the sweep to one N.
  std::vector<int> sweep = {2, 4, 8, 16};
  int layers = conference::ConferenceOptions{}.ladder_layers;
  // --regions=<r> cascades each point: r edge SFUs over contiguous roster
  // blocks, bridged by a root relay, sharded over r+1 loops.
  int regions = 1;
  // --loss=<rate> applies random loss to every access link; --loss_model
  // picks the process (iid | ge); --fec enables the src/fec subsystem;
  // --loss_table runs the loss-resilience acceptance sweep (parties x
  // loss x {nack, fec}) in addition to the main sweep.
  LossSetup loss;
  bool loss_table = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string parties_prefix = "--parties=";
    const std::string layers_prefix = "--layers=";
    const std::string regions_prefix = "--regions=";
    const std::string loss_prefix = "--loss=";
    const std::string loss_model_prefix = "--loss_model=";
    if (arg.rfind(loss_prefix, 0) == 0) {
      loss.rate = std::atof(arg.c_str() + loss_prefix.size());
      if (loss.rate < 0.0 || loss.rate >= 1.0) {
        std::fprintf(stderr, "--loss wants a rate in [0, 1), got %f\n",
                     loss.rate);
        return 2;
      }
    } else if (arg.rfind(loss_model_prefix, 0) == 0) {
      const std::string model = arg.substr(loss_model_prefix.size());
      if (model == "iid") {
        loss.model = net::LossModel::kIid;
      } else if (model == "ge" || model == "gilbert_elliott") {
        loss.model = net::LossModel::kGilbertElliott;
      } else {
        std::fprintf(stderr, "--loss_model wants iid or ge, got %s\n",
                     model.c_str());
        return 2;
      }
    } else if (arg == "--fec") {
      loss.fec = true;
    } else if (arg == "--loss_table") {
      loss_table = true;
    } else if (arg.rfind(parties_prefix, 0) == 0) {
      const int n = std::atoi(arg.c_str() + parties_prefix.size());
      if (n < 2) {
        std::fprintf(stderr, "--parties wants n >= 2, got %d\n", n);
        return 2;
      }
      sweep = {n};
    } else if (arg.rfind(layers_prefix, 0) == 0) {
      // Ladder depth; --layers=1 disables the simulcast ladder entirely
      // (single-layer encode), which is the baseline for the
      // encode-once overhead comparison.
      layers = std::atoi(arg.c_str() + layers_prefix.size());
      if (layers < 1) {
        std::fprintf(stderr, "--layers wants n >= 1, got %d\n", layers);
        return 2;
      }
    } else if (arg.rfind(regions_prefix, 0) == 0) {
      regions = std::atoi(arg.c_str() + regions_prefix.size());
      if (regions < 1) {
        std::fprintf(stderr, "--regions wants n >= 1, got %d\n", regions);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--parties=<n>] [--layers=<l>] [--regions=<r>] "
                   "[--loss=<rate>] [--loss_model=iid|ge] [--fec] "
                   "[--loss_table]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<SweepPoint> priv, shared;
  for (int n : sweep) {
    priv.push_back(RunPoint(n, false, layers, regions, loss));
  }
  // A shared access bottleneck couples the whole roster in one loop-group
  // domain, so RunConference rejects it for cascades: the contention half
  // of the sweep only exists for the direct topology.
  if (regions <= 1) {
    for (int n : sweep) {
      shared.push_back(RunPoint(n, true, layers, regions, loss));
    }
  }

  // Loss-resilience acceptance sweep: NACK-only vs FEC + deadline-aware
  // repair at iid loss 1/5/10%, 2-party (direct) and 8-party conference,
  // private links. The FEC arm must beat NACK-only on both PLI rate and
  // stall rate at every point.
  struct LossRow {
    int parties;
    double rate;
    bool fec;
    SweepPoint point;
  };
  if (loss_table) {
    std::vector<LossRow> resilience;
    for (const int n : {2, 8}) {
      for (const double rate : {0.01, 0.05, 0.10}) {
        for (const bool fec : {false, true}) {
          LossSetup setup;
          setup.rate = rate;
          setup.fec = fec;
          resilience.push_back(
              {n, rate, fec,
               RunPoint(n, false, layers, 1, setup, kLossTableFrames)});
        }
      }
    }
    bench::PrintHeader("BENCH conference",
                       "loss resilience: NACK-only vs FEC + repair "
                       "scheduling, iid loss, private links");
    bench::PrintRow({"parties", "loss", "scheme", "pli_rate", "stall",
                     "s_lat", "nacks", "recov", "aband", "overhead"});
    for (const LossRow& row : resilience) {
      bench::PrintRow({std::to_string(row.parties),
                       bench::Fmt(row.rate, 2),
                       row.fec ? "fec" : "nack",
                       bench::Fmt(row.point.PliRate(), 3),
                       bench::Fmt(row.point.mean_stall_rate, 4),
                       bench::Fmt(row.point.stall_aware_latency_ms, 1),
                       std::to_string(row.point.nack_rounds),
                       std::to_string(row.point.recovered),
                       std::to_string(row.point.repairs_abandoned),
                       bench::Fmt(row.point.ParityOverhead(), 4)});
    }
    // Acceptance: at every point the FEC arm is no worse than NACK-only
    // on PLI rate and stall rate, strictly better on their totals, and
    // its parity overhead stays under the redundancy cap.
    const double cap = conference::ConferenceOptions{}.fec.redundancy_cap;
    bool accept = true;
    double nack_pli = 0.0, fec_pli = 0.0, nack_stall = 0.0, fec_stall = 0.0;
    for (std::size_t i = 0; i + 1 < resilience.size(); i += 2) {
      const LossRow& base = resilience[i];
      const LossRow& with_fec = resilience[i + 1];
      nack_pli += base.point.PliRate();
      fec_pli += with_fec.point.PliRate();
      nack_stall += base.point.mean_stall_rate;
      fec_stall += with_fec.point.mean_stall_rate;
      if (with_fec.point.PliRate() > base.point.PliRate() ||
          with_fec.point.mean_stall_rate > base.point.mean_stall_rate ||
          with_fec.point.ParityOverhead() > cap + 1e-9) {
        accept = false;
        std::printf("loss_resilience regression at parties=%d loss=%.2f: "
                    "pli %.3f vs %.3f, stall %.4f vs %.4f, overhead %.4f "
                    "(cap %.2f)\n",
                    base.parties, base.rate, with_fec.point.PliRate(),
                    base.point.PliRate(), with_fec.point.mean_stall_rate,
                    base.point.mean_stall_rate,
                    with_fec.point.ParityOverhead(), cap);
      }
    }
    if (fec_pli >= nack_pli && fec_stall >= nack_stall &&
        (nack_pli > 0.0 || nack_stall > 0.0)) {
      accept = false;
      std::printf("loss_resilience: FEC never strictly improved "
                  "(pli %.3f vs %.3f, stall %.4f vs %.4f)\n",
                  fec_pli, nack_pli, fec_stall, nack_stall);
    }
    std::printf("loss_resilience acceptance: %s\n",
                accept ? "PASS" : "FAIL");
    std::printf("\n");
  }

  PrintSweep(regions > 1
                 ? "N parties, private access links, cascaded over " +
                       std::to_string(regions) + " edge regions + root relay"
                 : "N parties, private access links (SFU scaling)",
             priv);
  if (!shared.empty()) {
    PrintSweep("N parties, shared uplink + downlink bottlenecks (contention)",
               shared);
  }

  return 0;
}
