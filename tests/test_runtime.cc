// Unit + integration tests for livo::runtime — the discrete-event
// scheduler, the event-driven session actor's exact equivalence with the
// retained 1 ms tick-loop reference and its pinned mean PSSIM, determinism
// across repeated runs and thread-pool sizes, and multi-session result
// isolation.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ios>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "core/types.h"
#include "runtime/cross_loop_channel.h"
#include "runtime/event_loop.h"
#include "runtime/loop_group.h"
#include "runtime/multi_session.h"
#include "runtime/session_actor.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::runtime {
namespace {

// ---- EventLoop ----

TEST(EventLoop, DispatchesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30.0, [&](double) { order.push_back(3); });
  loop.ScheduleAt(10.0, [&](double) { order.push_back(1); });
  loop.ScheduleAt(20.0, [&](double) { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loop.NowMs(), 30.0);
  EXPECT_EQ(loop.events_dispatched(), 3u);
}

TEST(EventLoop, SameTimestampEventsDispatchFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    loop.ScheduleAt(42.0, [&order, i](double) { order.push_back(i); });
  }
  loop.Run();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, ScheduleAfterFromInsideCallback) {
  EventLoop loop;
  std::vector<double> fire_times;
  loop.ScheduleAt(5.0, [&](double now) {
    fire_times.push_back(now);
    loop.ScheduleAfter(7.0, [&](double later) {
      fire_times.push_back(later);
      loop.ScheduleAfter(0.0, [&](double again) { fire_times.push_back(again); });
    });
  });
  loop.Run();
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_DOUBLE_EQ(fire_times[0], 5.0);
  EXPECT_DOUBLE_EQ(fire_times[1], 12.0);
  EXPECT_DOUBLE_EQ(fire_times[2], 12.0);
}

TEST(EventLoop, CancelPreventsDispatch) {
  EventLoop loop;
  int fired = 0;
  const auto id = loop.ScheduleAt(10.0, [&](double) { ++fired; });
  loop.ScheduleAt(20.0, [&](double) { ++fired; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // already cancelled
  loop.Run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  std::vector<double> fired;
  for (double t : {5.0, 15.0, 25.0}) {
    loop.ScheduleAt(t, [&fired](double now) { fired.push_back(now); });
  }
  loop.RunUntil(16.0);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(loop.NowMs(), 16.0);
  EXPECT_EQ(loop.QueueDepth(), 1u);
  loop.Run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(EventLoop, VirtualClockSatisfiesUtilClock) {
  EventLoop loop;
  const util::Clock& clock = loop.clock();
  EXPECT_DOUBLE_EQ(clock.NowMs(), 0.0);
  double seen = -1.0;
  loop.ScheduleAt(33.5, [&](double) { seen = clock.NowMs(); });
  loop.Run();
  EXPECT_DOUBLE_EQ(seen, 33.5);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 33.5);
}

// ---- LoopGroup / CrossLoopChannel ----

TEST(LoopGroup, RejectsLookaheadViolations) {
  LoopGroup group(2, 10.0);
  EXPECT_THROW(group.CreateChannel(0, 1, 5.0), std::invalid_argument);
  EXPECT_THROW(group.CreateChannel(-1, 0, 10.0), std::invalid_argument);
  CrossLoopChannel* channel = group.CreateChannel(0, 1, 10.0);
  EXPECT_EQ(channel->id(), 0);
  EXPECT_DOUBLE_EQ(channel->min_delay_ms(), 10.0);
  EXPECT_THROW(channel->Send(0.0, 9.0, [](double) {}), std::invalid_argument);
  group.Run();  // empty group quiesces immediately
  EXPECT_EQ(group.events_dispatched(), 0u);
}

TEST(LoopGroup, DomainsMapToLoopsModuloShards) {
  LoopGroup group(2, 10.0);
  EXPECT_EQ(group.shards(), 2);
  EXPECT_EQ(group.LoopIndexOf(0), 0);
  EXPECT_EQ(group.LoopIndexOf(1), 1);
  EXPECT_EQ(group.LoopIndexOf(2), 0);
  EXPECT_EQ(&group.loop(0), &group.loop(2));
  EXPECT_NE(&group.loop(0), &group.loop(1));
}

// Ordering contract of cross_loop_channel.h: same-timestamp messages from
// *different* source domains drain by (channel id, sequence), where
// channel ids follow creation order — deliberately not domain numbering
// and not physical loop placement, so the order is identical at every
// shard count.
TEST(LoopGroup, SameTimestampMessagesDrainByChannelIdThenSequence) {
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    LoopGroup group(shards, 10.0);
    CrossLoopChannel* from2 = group.CreateChannel(2, 3, 10.0);  // id 0
    CrossLoopChannel* from0 = group.CreateChannel(0, 3, 10.0);  // id 1
    CrossLoopChannel* from1 = group.CreateChannel(1, 3, 10.0);  // id 2
    std::vector<std::pair<int, int>> order;  // (channel id, send index)
    const auto arm = [&group, &order](CrossLoopChannel* channel, int domain) {
      group.loop(domain).ScheduleAt(5.0, [&order, channel](double now) {
        for (int k = 0; k < 3; ++k) {
          channel->Send(now, 10.0, [&order, channel, k](double) {
            order.emplace_back(channel->id(), k);
          });
        }
      });
    };
    // Armed in an order unrelated to either domain or channel numbering.
    arm(from1, 1);
    arm(from2, 2);
    arm(from0, 0);
    group.Run();
    std::vector<std::pair<int, int>> expected;
    for (int id = 0; id < 3; ++id) {
      for (int k = 0; k < 3; ++k) expected.emplace_back(id, k);
    }
    EXPECT_EQ(order, expected);
    EXPECT_EQ(from0->messages_sent(), 3u);
    EXPECT_DOUBLE_EQ(group.MaxDispatchMs(), 15.0);
  }
}

// Stress + determinism: four domains in a message ring push thousands of
// cross-loop messages through the window machinery. The per-domain hash
// folds every delivery's (chain, hop, virtual time), so any reordering,
// loss, or duplication shows up; totals and hashes must be bit-identical
// for every shard count and across reruns. With 4 shards this is also the
// TSan workload for the inbox/barrier paths (livo_check.sh).
TEST(LoopGroup, RingStressIsDeterministicAcrossShardCounts) {
  constexpr int kDomains = 4;
  constexpr int kChains = 8;
  constexpr int kHops = 64;  // kDomains * kChains * kHops = 2048 messages
  constexpr double kWindowMs = 10.0;

  struct RingRun {
    std::vector<std::uint64_t> hash;
    std::uint64_t dispatched = 0;
    bool operator==(const RingRun& other) const {
      return hash == other.hash && dispatched == other.dispatched;
    }
  };
  const auto run_ring = [&](int shards) {
    LoopGroup group(shards, kWindowMs);
    std::vector<CrossLoopChannel*> ring;
    for (int d = 0; d < kDomains; ++d) {
      ring.push_back(group.CreateChannel(d, (d + 1) % kDomains, kWindowMs));
    }
    // One hash cell per domain: a domain's messages all run on one loop,
    // and distinct vector elements are safe to touch from distinct loops.
    RingRun run;
    run.hash.assign(kDomains, 14695981039346656037ull);
    std::function<void(int, int, int, double)> bounce =
        [&](int domain, int chain, int hops_left, double now) {
          std::uint64_t& h = run.hash[static_cast<std::size_t>(domain)];
          h ^= static_cast<std::uint64_t>(chain * 131 + hops_left);
          h *= 1099511628211ull;
          h ^= static_cast<std::uint64_t>(now * 8.0);
          h *= 1099511628211ull;
          if (hops_left == 0) return;
          const int next = (domain + 1) % kDomains;
          ring[static_cast<std::size_t>(domain)]->Send(
              now, kWindowMs, [&bounce, next, chain, hops_left](double t) {
                bounce(next, chain, hops_left - 1, t);
              });
        };
    for (int d = 0; d < kDomains; ++d) {
      for (int c = 0; c < kChains; ++c) {
        const int chain = d * kChains + c;
        group.loop(d).ScheduleAt(3.0 * c, [&bounce, d, chain](double now) {
          bounce(d, chain, kHops, now);
        });
      }
    }
    group.Run();
    run.dispatched = group.events_dispatched();
    return run;
  };

  const RingRun baseline = run_ring(1);
  // Seeds + every ring hop each dispatch exactly one event.
  EXPECT_EQ(baseline.dispatched,
            static_cast<std::uint64_t>(kDomains * kChains * (kHops + 1)));
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    EXPECT_TRUE(run_ring(shards) == baseline);
  }
  EXPECT_TRUE(run_ring(1) == baseline);  // rerun
}

// ---- Session fixtures (small scale, shared across the suite) ----

sim::ScaleProfile SmallProfile() {
  sim::ScaleProfile profile;
  profile.camera_count = 4;
  profile.camera_width = 48;
  profile.camera_height = 40;
  return profile;
}

const sim::CapturedSequence& Sequence(const std::string& name, int frames) {
  static std::map<std::pair<std::string, int>, sim::CapturedSequence> cache;
  auto it = cache.find({name, frames});
  if (it == cache.end()) {
    it = cache.emplace(std::make_pair(name, frames),
                       sim::CaptureVideo(name, SmallProfile(), frames))
             .first;
  }
  return it->second;
}

core::LiVoConfig SmallConfig() {
  core::LiVoConfig config;
  const auto profile = SmallProfile();
  config.layout = image::TileLayout(profile.camera_count, profile.camera_width,
                                    profile.camera_height);
  return config;
}

core::ReplayOptions SmallOptions() {
  core::ReplayOptions options;
  options.bandwidth_scale = 1.0 / 48.0;
  options.metric_every = 4;
  options.pssim_anchors = 250;
  return options;
}

// Compares every virtual-time-deterministic field of two session results.
// Wall-clock-derived fields (latency_ms and the per-stage RunningStats
// timings, which include real decode/encode milliseconds) legitimately
// differ between runs and are excluded.
void ExpectSessionsEquivalent(const core::SessionResult& a,
                              const core::SessionResult& b) {
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    const core::FrameRecord& fa = a.frames[i];
    const core::FrameRecord& fb = b.frames[i];
    EXPECT_EQ(fa.frame_index, fb.frame_index);
    EXPECT_EQ(fa.rendered, fb.rendered);
    EXPECT_DOUBLE_EQ(fa.capture_time_ms, fb.capture_time_ms);
    EXPECT_DOUBLE_EQ(fa.render_time_ms, fb.render_time_ms);
    EXPECT_DOUBLE_EQ(fa.pssim_geometry, fb.pssim_geometry);
    EXPECT_DOUBLE_EQ(fa.pssim_color, fb.pssim_color);
    EXPECT_DOUBLE_EQ(fa.sender.split, fb.sender.split);
    EXPECT_DOUBLE_EQ(fa.sender.target_bps, fb.sender.target_bps);
    EXPECT_EQ(fa.sender.color_bytes, fb.sender.color_bytes);
    EXPECT_EQ(fa.sender.depth_bytes, fb.sender.depth_bytes);
    EXPECT_DOUBLE_EQ(fa.sender.cull_kept_fraction, fb.sender.cull_kept_fraction);
    EXPECT_DOUBLE_EQ(fa.sender.rmse_color, fb.sender.rmse_color);
    EXPECT_DOUBLE_EQ(fa.sender.rmse_depth, fb.sender.rmse_depth);
  }
  EXPECT_DOUBLE_EQ(a.stall_rate, b.stall_rate);
  EXPECT_DOUBLE_EQ(a.fps, b.fps);
  EXPECT_DOUBLE_EQ(a.mean_pssim_geometry, b.mean_pssim_geometry);
  EXPECT_DOUBLE_EQ(a.mean_pssim_color, b.mean_pssim_color);
  EXPECT_DOUBLE_EQ(a.mean_throughput_mbps, b.mean_throughput_mbps);
  EXPECT_DOUBLE_EQ(a.mean_capacity_mbps, b.mean_capacity_mbps);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

// ---- Equivalence with the tick-loop reference ----

// Acceptance criterion of the runtime refactor: on all five dataset
// sequences the event-driven driver reproduces the retained tick-loop
// implementation's per-frame records and aggregates exactly.
TEST(RuntimeEquivalence, MatchesTickReferenceOnAllFiveSequences) {
  const int kFrames = 8;
  for (const sim::VideoSpec& spec : sim::AllVideos()) {
    SCOPED_TRACE(spec.name);
    const auto& seq = Sequence(spec.name, kFrames);
    const auto user =
        sim::GenerateUserTrace(spec.name, sim::TraceStyle::kOrbit, kFrames + 90);
    const auto net = sim::MakeTrace2(20.0);
    const core::LiVoConfig config = SmallConfig();
    const core::ReplayOptions options = SmallOptions();
    const core::SessionResult reference =
        core::RunLiVoSessionTickReference(seq, user, net, config, options);
    const core::SessionResult event_driven =
        core::RunLiVoSession(seq, user, net, config, options);
    ExpectSessionsEquivalent(reference, event_driven);
  }
}

// Pins the event-driven session's mean PSSIM on the five sequences above
// (same config, options and traces), bit for bit: a neighbour-search or
// metric change that moves any score by one ulp fails here. The values
// depend on the order VoxelDownsample emits points, which is
// std::unordered_map iteration order, so the sort-based voxelizer on the
// ROADMAP re-pins them once.
TEST(RuntimeGolden, MeanPssimPinnedOnAllFiveSequences) {
  struct Golden {
    const char* video;
    double geometry;
    double color;
  };
  constexpr Golden kGolden[] = {
      {"band2", 0x1.7debf3e61283cp+6, 0x1.4ad0b7e89b042p+6},
      {"dance5", 0x1.88c1a68ae796p+6, 0x1.56b62fff6554p+6},
      {"office1", 0x1.7d1114189da89p+6, 0x1.36f61226b3252p+6},
      {"pizza1", 0x1.705932cc2b4a6p+6, 0x1.40417af380fc6p+6},
      {"toddler4", 0x1.889829781c2b8p+6, 0x1.57f0301cd7133p+6},
  };
  const int kFrames = 8;
  const auto& videos = sim::AllVideos();
  ASSERT_EQ(videos.size(), std::size(kGolden));
  for (std::size_t i = 0; i < videos.size(); ++i) {
    const Golden& golden = kGolden[i];
    ASSERT_EQ(videos[i].name, golden.video);
    SCOPED_TRACE(golden.video);
    const auto& seq = Sequence(golden.video, kFrames);
    const auto user = sim::GenerateUserTrace(
        golden.video, sim::TraceStyle::kOrbit, kFrames + 90);
    const core::SessionResult result = core::RunLiVoSession(
        seq, user, sim::MakeTrace2(20.0), SmallConfig(), SmallOptions());
    EXPECT_EQ(result.mean_pssim_geometry, golden.geometry)
        << std::hexfloat << result.mean_pssim_geometry;
    EXPECT_EQ(result.mean_pssim_color, golden.color)
        << std::hexfloat << result.mean_pssim_color;
  }
}

// Random loss exercises the NACK/PLI/deadline timers, the hardest part of
// the event-time derivation (strict vs non-strict boundaries).
TEST(RuntimeEquivalence, MatchesTickReferenceUnderLoss) {
  const int kFrames = 10;
  const auto& seq = Sequence("toddler4", kFrames);
  const auto user =
      sim::GenerateUserTrace("toddler4", sim::TraceStyle::kWalkIn, kFrames + 90);
  const auto net = sim::MakeTrace2(20.0);
  const core::LiVoConfig config = SmallConfig();
  core::ReplayOptions options = SmallOptions();
  options.channel.link.loss_rate = 0.02;
  options.trace_offset_ms = 3100.0;
  const core::SessionResult reference =
      core::RunLiVoSessionTickReference(seq, user, net, config, options);
  const core::SessionResult event_driven =
      core::RunLiVoSession(seq, user, net, config, options);
  ExpectSessionsEquivalent(reference, event_driven);
}

// ---- Determinism ----

TEST(RuntimeDeterminism, IdenticalResultsAcrossRepeatedRuns) {
  const int kFrames = 8;
  const auto& seq = Sequence("band2", kFrames);
  const auto user =
      sim::GenerateUserTrace("band2", sim::TraceStyle::kFocus, kFrames + 90);
  const auto net = sim::MakeTrace2(20.0);
  const core::LiVoConfig config = SmallConfig();
  const core::ReplayOptions options = SmallOptions();
  const core::SessionResult first =
      core::RunLiVoSession(seq, user, net, config, options);
  const core::SessionResult second =
      core::RunLiVoSession(seq, user, net, config, options);
  ExpectSessionsEquivalent(first, second);
}

// The slice-parallel codec guarantees byte-identical bitstreams for any
// thread count, so the session outcome must not depend on the pool size.
TEST(RuntimeDeterminism, IdenticalResultsAcrossThreadPoolSizes) {
  const int kFrames = 8;
  const auto& seq = Sequence("band2", kFrames);
  const auto user =
      sim::GenerateUserTrace("band2", sim::TraceStyle::kFocus, kFrames + 90);
  const auto net = sim::MakeTrace2(20.0);
  const core::ReplayOptions options = SmallOptions();
  core::LiVoConfig serial = SmallConfig();
  serial.codec_threads = 1;
  core::LiVoConfig pooled = SmallConfig();
  pooled.codec_threads = 0;  // all hardware threads
  const core::SessionResult a =
      core::RunLiVoSession(seq, user, net, serial, options);
  const core::SessionResult b =
      core::RunLiVoSession(seq, user, net, pooled, options);
  ExpectSessionsEquivalent(a, b);
}

// ---- Multi-session ----

SessionSpec SmallSpec(const std::string& video, sim::TraceStyle style,
                      int frames) {
  SessionSpec spec;
  spec.sequence = &Sequence(video, frames);
  spec.user_trace = sim::GenerateUserTrace(video, style, frames + 90);
  spec.net_trace = sim::MakeTrace2(20.0);
  spec.config = SmallConfig();
  spec.options = SmallOptions();
  spec.options.metric_every = 1 << 20;  // skip PSSIM: fps/stall suffice here
  return spec;
}

TEST(MultiSession, SingleSpecMatchesRunLiVoSession) {
  const auto spec = SmallSpec("toddler4", sim::TraceStyle::kOrbit, 6);
  auto result = RunMultiSession({spec});
  ASSERT_EQ(result.sessions.size(), 1u);
  EXPECT_GT(result.events_dispatched, 0u);
  const core::SessionResult direct = core::RunLiVoSession(
      *spec.sequence, spec.user_trace, spec.net_trace, spec.config,
      spec.options);
  ExpectSessionsEquivalent(direct, result.sessions[0]);
}

// Result isolation: two identical sessions interleaved on one loop must
// each produce exactly what they produce alone.
TEST(MultiSession, InterleavedSessionsStayIsolated) {
  const auto spec = SmallSpec("toddler4", sim::TraceStyle::kOrbit, 6);
  auto multi = RunMultiSession({spec, spec});
  ASSERT_EQ(multi.sessions.size(), 2u);
  ExpectSessionsEquivalent(multi.sessions[0], multi.sessions[1]);
  const core::SessionResult direct = core::RunLiVoSession(
      *spec.sequence, spec.user_trace, spec.net_trace, spec.config,
      spec.options);
  ExpectSessionsEquivalent(direct, multi.sessions[0]);
}

TEST(MultiSession, SharedBottleneckRunsAndBoundsThroughput) {
  const int kSessions = 4;
  std::vector<SessionSpec> specs;
  for (int i = 0; i < kSessions; ++i) {
    specs.push_back(SmallSpec(i % 2 == 0 ? "toddler4" : "office1",
                              sim::TraceStyle::kOrbit, 6));
  }
  MultiSessionOptions options;
  options.share_link = true;
  options.shared_trace = sim::MakeTrace2(20.0);
  options.shared_link_config = specs[0].options.channel.link;
  options.shared_link_config.bandwidth_scale = specs[0].options.bandwidth_scale;
  auto result = RunMultiSession(specs, options);
  ASSERT_EQ(result.sessions.size(), static_cast<std::size_t>(kSessions));
  double total_throughput = 0.0;
  for (const auto& s : result.sessions) {
    EXPECT_EQ(s.net_trace, "shared");
    EXPECT_EQ(s.frames.size(), 6u);
    EXPECT_GT(s.mean_throughput_mbps, 0.0);
    EXPECT_DOUBLE_EQ(s.mean_capacity_mbps, options.shared_trace.MeanMbps());
    total_throughput += s.mean_throughput_mbps;
  }
  // All flows together cannot exceed the bottleneck by more than the
  // drain-window slack (bytes sent near the end count toward throughput
  // over the nominal duration only).
  EXPECT_LT(total_throughput, 1.6 * options.shared_trace.MeanMbps());
}

// Acceptance criterion of the sharded runtime: RunMultiSession's
// fingerprint is bit-identical for any shard count, across reruns, and
// across codec thread counts. Independent sessions are one domain each,
// so 4 sessions genuinely spread over 2 and 4 loops here.
TEST(MultiSessionDeterminism, FingerprintInvariantAcrossShardsAndReruns) {
  const std::vector<std::string> videos = {"toddler4", "office1", "band2",
                                           "dance5"};
  std::vector<SessionSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(SmallSpec(videos[static_cast<std::size_t>(i)],
                              sim::TraceStyle::kOrbit, 5));
  }
  MultiSessionOptions options;
  options.shards = 1;
  const MultiSessionResult baseline = RunMultiSession(specs, options);
  const std::uint64_t fingerprint = MultiSessionFingerprint(baseline);
  EXPECT_EQ(baseline.shards, 1);
  for (int shards : {2, 4}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    options.shards = shards;
    const MultiSessionResult sharded = RunMultiSession(specs, options);
    EXPECT_EQ(sharded.shards, shards);
    EXPECT_EQ(MultiSessionFingerprint(sharded), fingerprint);
    EXPECT_EQ(sharded.events_dispatched, baseline.events_dispatched);
    EXPECT_DOUBLE_EQ(sharded.virtual_ms, baseline.virtual_ms);
  }
  options.shards = 1;
  EXPECT_EQ(MultiSessionFingerprint(RunMultiSession(specs, options)),
            fingerprint);  // rerun
  // Codec pool sizes must not leak into the fingerprint either.
  for (SessionSpec& spec : specs) spec.config.codec_threads = 1;
  options.shards = 2;
  EXPECT_EQ(MultiSessionFingerprint(RunMultiSession(specs, options)),
            fingerprint);
}

// ---- SharedLink flow registration + fairness ----

sim::BandwidthTrace ConstantTrace(double mbps, int samples) {
  sim::BandwidthTrace trace;
  trace.name = "constant";
  trace.mbps.assign(static_cast<std::size_t>(samples), mbps);
  return trace;
}

// Regression: the mux used to silently drop packets whose flow_id no
// channel had registered (`if (flow_id < flows_.size())`), which turned a
// mis-wired topology into an unexplained stall hundreds of virtual
// milliseconds later. Unknown flows must throw at the mux instead.
TEST(SharedLink, IngestThrowsOnUnregisteredFlow) {
  SharedLink shared(ConstantTrace(10.0, 100), net::LinkConfig{});
  net::Packet packet;
  packet.flow_id = 0;  // nothing registered yet
  packet.payload_bytes = 100;
  EXPECT_THROW(shared.Ingest(packet, 0.0), std::out_of_range);

  const auto channel = shared.Connect(net::ChannelConfig{});
  EXPECT_EQ(channel->flow_id(), 0u);
  EXPECT_NO_THROW(shared.Ingest(packet, 0.0));

  packet.flow_id = 1;  // beyond the registered range
  EXPECT_THROW(shared.Ingest(packet, 0.0), std::out_of_range);
}

TEST(SharedLink, RegisterRejectsDuplicateAndGappedFlowIds) {
  SharedLink shared(ConstantTrace(10.0, 100), net::LinkConfig{});
  const auto first = shared.Connect(net::ChannelConfig{});
  ASSERT_EQ(shared.flow_count(), 1u);

  net::VideoChannel other(shared.link_ptr(), net::ChannelConfig{}, 1);
  EXPECT_THROW(shared.Register(0, &other), std::invalid_argument);  // taken
  EXPECT_THROW(shared.Register(2, &other), std::invalid_argument);  // gap
  EXPECT_THROW(shared.Register(1, nullptr), std::invalid_argument);
  EXPECT_NO_THROW(shared.Register(1, &other));
  EXPECT_EQ(shared.flow_count(), 2u);
  EXPECT_EQ(first->flow_id(), 0u);
}

// N equal-demand flows on one bottleneck must each get close to 1/N of
// the delivered bytes. Demand slightly exceeds capacity (paced,
// interleaved sends), so the cutoff lands mid-backlog where unfair
// serialization would show up; the per-flow counters added with explicit
// registration make the shares observable.
TEST(SharedLink, EqualDemandFlowsShareBottleneckFairly) {
  constexpr int kFlows = 4;
  constexpr int kRounds = 40;
  constexpr std::size_t kFrameBytes = 1000;
  net::LinkConfig link;
  link.max_queue_delay_ms = 60000.0;  // no drop-tail: pure serialization
  SharedLink shared(ConstantTrace(1.0, 600), link);  // 1 Mbps = 125 kB/s

  std::vector<std::unique_ptr<net::VideoChannel>> channels;
  for (int f = 0; f < kFlows; ++f) {
    channels.push_back(shared.Connect(net::ChannelConfig{}));
  }
  const auto payload = std::make_shared<const std::vector<std::uint8_t>>(
      kFrameBytes, std::uint8_t{0x5a});
  for (int round = 0; round < kRounds; ++round) {
    const double now = round * 25.0;  // 4 kB / 25 ms = 160 kB/s demand
    for (int f = 0; f < kFlows; ++f) {
      channels[static_cast<std::size_t>(f)]->SendFrame(
          0, static_cast<std::uint32_t>(round), true, payload, now);
    }
    shared.PumpUpTo(now);
  }
  shared.PumpUpTo(kRounds * 25.0);

  double total = 0.0;
  for (int f = 0; f < kFlows; ++f) {
    total += static_cast<double>(
        shared.FlowDeliveredBytes(static_cast<std::uint32_t>(f)));
  }
  ASSERT_GT(total, 0.0);
  const double fair = total / kFlows;
  for (int f = 0; f < kFlows; ++f) {
    const auto delivered = static_cast<double>(
        shared.FlowDeliveredBytes(static_cast<std::uint32_t>(f)));
    // Within 10% of the fair share: round-robin enqueue order bounds the
    // skew to about one frame burst per flow at the cutoff.
    EXPECT_NEAR(delivered, fair, 0.10 * fair) << "flow " << f;
  }
  EXPECT_THROW(shared.FlowDeliveredBytes(kFlows), std::out_of_range);
}

}  // namespace
}  // namespace livo::runtime
