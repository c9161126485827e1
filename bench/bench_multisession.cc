// Scheduler-throughput benchmark for livo::runtime (the discrete-event
// refactor). Sweeps N concurrent sessions on a LoopGroup, in both link
// topologies:
//   * independent: each session replays its own bandwidth trace — pure
//     scheduler scaling (events/sec, sessions/sec);
//   * shared: all sessions contend on one bottleneck link — the
//     conferencing setting, where per-session fps/stall shifts vs N=1
//     measure the cost of contention.
// A third sweep scales loop shards over big independent rosters
// (N x shards grid): results are bit-identical at every shard count, so
// the speedup column is pure parallel-runtime gain. Prints a table per
// sweep; --shards=K pins the shard sweep to one shard count.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "runtime/multi_session.h"
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

const sim::CapturedSequence& Sequence(const std::string& name) {
  static std::map<std::string, sim::CapturedSequence> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, sim::CaptureVideo(name, Profile(), kFrames))
             .first;
  }
  return it->second;
}

runtime::SessionSpec SpecFor(int index) {
  const auto& videos = sim::AllVideos();
  const sim::VideoSpec& video = videos[index % videos.size()];
  const auto style = static_cast<sim::TraceStyle>(index % 3);
  runtime::SessionSpec spec;
  spec.sequence = &Sequence(video.name);
  spec.user_trace = sim::GenerateUserTrace(video.name, style, kFrames + 90);
  spec.net_trace = sim::MakeTrace2(30.0, 202 + index);
  spec.config.layout =
      image::TileLayout(Profile().camera_count, Profile().camera_width,
                        Profile().camera_height);
  spec.options.bandwidth_scale = Profile().bandwidth_scale;
  spec.options.metric_every = 1 << 20;  // PSSIM off: scheduler perf only
  spec.options.trace_offset_ms = 4000.0 * index;
  return spec;
}

struct SweepPoint {
  int sessions = 0;
  bool shared = false;
  int shards = 1;
  std::uint64_t fingerprint = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double sessions_per_sec = 0.0;
  double mean_fps = 0.0;
  double mean_stall_rate = 0.0;
};

SweepPoint RunPoint(int n, bool shared, int shards = 1) {
  std::vector<runtime::SessionSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) specs.push_back(SpecFor(i));

  runtime::MultiSessionOptions options;
  options.shards = shards;
  if (shared) {
    options.share_link = true;
    // The bottleneck carries N flows: capacity scales with N so the
    // per-flow share stays comparable across the sweep and the fps/stall
    // deltas isolate contention effects (queue coupling, GCC fairness)
    // rather than plain starvation.
    options.shared_trace = sim::MakeTrace2(30.0).Scaled(n);
    options.shared_link_config = specs[0].options.channel.link;
    options.shared_link_config.bandwidth_scale =
        specs[0].options.bandwidth_scale;
  }

  const auto result = runtime::RunMultiSession(std::move(specs), options);

  SweepPoint point;
  point.sessions = n;
  point.shared = shared;
  point.shards = result.shards;
  point.fingerprint = runtime::MultiSessionFingerprint(result);
  point.wall_ms = result.wall_ms;
  point.events = result.events_dispatched;
  const double wall_s = result.wall_ms / 1000.0;
  point.events_per_sec = wall_s > 0 ? result.events_dispatched / wall_s : 0;
  point.sessions_per_sec = wall_s > 0 ? n / wall_s : 0;
  for (const auto& s : result.sessions) {
    point.mean_fps += s.fps / n;
    point.mean_stall_rate += s.stall_rate / n;
  }
  return point;
}

void PrintSweep(const std::string& title,
                const std::vector<SweepPoint>& points) {
  bench::PrintHeader("BENCH runtime", title);
  bench::PrintRow({"sessions", "wall_ms", "events", "events/s", "sess/s",
                   "fps", "stall", "d_fps", "d_stall"});
  const SweepPoint& base = points.front();
  for (const auto& p : points) {
    bench::PrintRow({std::to_string(p.sessions), bench::Fmt(p.wall_ms, 1),
                     std::to_string(p.events),
                     bench::Fmt(p.events_per_sec, 0),
                     bench::Fmt(p.sessions_per_sec, 2),
                     bench::Fmt(p.mean_fps, 2),
                     bench::Fmt(p.mean_stall_rate, 3),
                     bench::Fmt(p.mean_fps - base.mean_fps, 2),
                     bench::Fmt(p.mean_stall_rate - base.mean_stall_rate, 3)});
  }
  std::printf("\n");
}

// Shard scaling: big independent rosters spread over 1..8 loops. The
// speedup column is wall-time vs the 1-shard run of the same N; the
// fingerprint check makes the determinism contract part of the bench.
void PrintShardSweep(const std::vector<SweepPoint>& points) {
  bench::PrintHeader("BENCH runtime",
                     "N sessions x loop shards (sharded LoopGroup)");
  bench::PrintRow({"sessions", "shards", "wall_ms", "events/s", "speedup",
                   "deterministic"});
  std::map<int, const SweepPoint*> base;  // sessions -> 1-shard point
  for (const auto& p : points) {
    if (p.shards == 1 && base.find(p.sessions) == base.end()) {
      base[p.sessions] = &p;
    }
  }
  for (const auto& p : points) {
    const SweepPoint* b = base.count(p.sessions) ? base[p.sessions] : &p;
    bench::PrintRow({std::to_string(p.sessions), std::to_string(p.shards),
                     bench::Fmt(p.wall_ms, 1), bench::Fmt(p.events_per_sec, 0),
                     bench::Fmt(p.wall_ms > 0 ? b->wall_ms / p.wall_ms : 0.0,
                                2),
                     p.fingerprint == b->fingerprint ? "yes" : "NO"});
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  int pinned_shards = 0;  // 0 = sweep the default shard ladder
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string shards_prefix = "--shards=";
    if (arg.rfind(shards_prefix, 0) == 0) {
      pinned_shards = std::stoi(arg.substr(shards_prefix.size()));
    }
  }

  const std::vector<int> kSweep = {1, 2, 4, 8, 16};
  std::vector<SweepPoint> independent, shared;
  for (int n : kSweep) independent.push_back(RunPoint(n, false));
  for (int n : kSweep) shared.push_back(RunPoint(n, true));

  PrintSweep("N sessions, independent links (scheduler scaling)",
             independent);
  PrintSweep("N sessions, one shared bottleneck (contention)", shared);

  // Shard grid: each N runs at 1 shard first (the speedup/determinism
  // baseline), then the rest of the ladder.
  std::vector<int> shard_ladder = {1, 2, 4, 8};
  if (pinned_shards > 0) {
    shard_ladder = {1};  // always keep the speedup/determinism baseline
    if (pinned_shards != 1) shard_ladder.push_back(pinned_shards);
  }
  std::vector<SweepPoint> sharded;
  for (int n : {16, 32, 64, 128}) {
    for (int shards : shard_ladder) {
      sharded.push_back(RunPoint(n, false, shards));
    }
  }
  PrintShardSweep(sharded);
  return 0;
}
