// Tests for livo::conference — SFU admission control, determinism of a
// 4-party call across reruns and codec thread counts, the per-interval
// allocator budget invariant, seat-visibility geometry, and the 2-party
// degenerate case against the direct point-to-point session driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "conference/allocator.h"
#include "conference/conference.h"
#include "conference/topology.h"
#include "core/session.h"
#include "core/types.h"
#include "obs/obs.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::conference {
namespace {

// ---- Fixtures (same small scale as tests/test_runtime.cc) ----

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

sim::BandwidthTrace ConstantTrace(double mbps, double duration_s) {
  sim::BandwidthTrace trace;
  trace.name = "constant";
  const auto samples = static_cast<std::size_t>(
      duration_s * 1000.0 / trace.sample_interval_ms);
  trace.mbps.assign(samples, mbps);
  return trace;
}

// A small conference roster: every participant sends a different dataset
// sequence and watches with a different trace style.
std::vector<ParticipantSpec> SmallRoster(int parties, int frames) {
  const std::vector<std::string> videos = {"band2", "toddler4", "dance5",
                                           "office1", "pizza1"};
  const std::vector<sim::TraceStyle> styles = {
      sim::TraceStyle::kOrbit, sim::TraceStyle::kWalkIn,
      sim::TraceStyle::kFocus, sim::TraceStyle::kOrbit,
      sim::TraceStyle::kWalkIn};
  std::vector<ParticipantSpec> specs;
  for (int p = 0; p < parties; ++p) {
    ParticipantSpec spec;
    const std::string& video = videos[static_cast<std::size_t>(p) %
                                      videos.size()];
    spec.sequence = &Sequence(video, frames);
    spec.user_trace = sim::GenerateUserTrace(
        video, styles[static_cast<std::size_t>(p) % styles.size()],
        frames + 90);
    spec.uplink_trace = sim::MakeTrace2(30.0);
    spec.downlink_trace = sim::MakeTrace2(30.0);
    spec.uplink_trace_offset_ms = 1000.0 * p;
    spec.downlink_trace_offset_ms = 500.0 * p;
    spec.config = SmallConfig();
    specs.push_back(std::move(spec));
  }
  return specs;
}

ConferenceOptions SmallConferenceOptions() {
  ConferenceOptions options;
  options.bandwidth_scale = 1.0 / 48.0;
  return options;
}

// ---- Admission control ----

TEST(ConferenceAdmission, RejectsRostersTheSfuCannotServe) {
  const ConferenceOptions options = SmallConferenceOptions();
  EXPECT_THROW(RunConference({}, options), std::invalid_argument);
  EXPECT_THROW(RunConference(SmallRoster(1, 4), options),
               std::invalid_argument);

  ConferenceOptions capped = options;
  capped.max_parties = 3;
  EXPECT_THROW(RunConference(SmallRoster(4, 4), capped),
               std::invalid_argument);

  auto specs = SmallRoster(2, 4);
  specs[1].sequence = nullptr;
  EXPECT_THROW(RunConference(specs, options), std::invalid_argument);

  // The SFU steps its allocation clock by the interval, so a step that is
  // not positive (or NaN) would never reach the next event: reject it.
  for (const double interval_ms :
       {0.0, -100.0, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(interval_ms);
    ConferenceOptions stalled = options;
    stalled.allocation_interval_ms = interval_ms;
    EXPECT_THROW(RunConference(SmallRoster(3, 4), stalled),
                 std::invalid_argument);
  }
}

// ---- Seat geometry ----

TEST(ConferenceTopology, SeatsDegenerateToOriginForTwoParties) {
  const SeatLayout seats;
  const geom::Vec3 seat = SeatPosition(0, 1, seats);
  EXPECT_DOUBLE_EQ(seat.x, 0.0);
  EXPECT_DOUBLE_EQ(seat.y, 0.0);
  EXPECT_DOUBLE_EQ(seat.z, 0.0);
  // Three remotes sit on the circle at the configured radius.
  for (int slot = 0; slot < 3; ++slot) {
    const geom::Vec3 s = SeatPosition(slot, 3, seats);
    EXPECT_NEAR(std::sqrt(s.x * s.x + s.z * s.z), seats.radius_m, 1e-9);
    EXPECT_DOUBLE_EQ(s.y, 0.0);
  }
}

// ---- Allocator unit behavior ----

TEST(ConferenceAllocator, SharesFloorOffscreenRemotesAndSumToOne) {
  AllocatorConfig config;
  config.share_floor = 0.15;
  DownlinkAllocator alloc(4, config);  // 3 remote slots per subscriber
  alloc.BeginInterval(0, 0.0, 100000.0, {1.0, 0.0, 0.0});
  double sum = 0.0;
  for (int slot = 0; slot < 3; ++slot) sum += alloc.ShareOf(0, slot);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Fully visible slot gets the remainder above two floors; the invisible
  // ones keep exactly the floor trickle.
  EXPECT_NEAR(alloc.ShareOf(0, 1), 0.15, 1e-12);
  EXPECT_NEAR(alloc.ShareOf(0, 2), 0.15, 1e-12);
  EXPECT_NEAR(alloc.ShareOf(0, 0), 0.70, 1e-12);
  // All-zero visibility (nothing on screen) falls back to equal shares.
  alloc.BeginInterval(0, 100.0, 100000.0, {0.0, 0.0, 0.0});
  for (int slot = 0; slot < 3; ++slot) {
    EXPECT_NEAR(alloc.ShareOf(0, slot), 1.0 / 3.0, 1e-12);
  }
}

// Regression: with >= 1/share_floor remote slots the old floor clamp
// (min(share_floor, equal)) consumed the whole budget in floors and
// collapsed every share to uniform regardless of visibility. At 8 parties
// (7 slots, floor 0.15) distinct visible fractions must still produce
// strictly ordered, distinct shares.
TEST(ConferenceAllocator, SharesStayVisibilityDrivenAtEightParties) {
  AllocatorConfig config;
  config.share_floor = 0.15;
  DownlinkAllocator alloc(8, config);  // 7 remote slots per subscriber
  const std::vector<double> visibility = {0.05, 0.1, 0.2, 0.4,
                                          0.6,  0.8, 1.0};
  alloc.BeginInterval(0, 0.0, 100000.0, visibility);
  double sum = 0.0;
  for (int slot = 0; slot < 7; ++slot) sum += alloc.ShareOf(0, slot);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (int slot = 0; slot + 1 < 7; ++slot) {
    EXPECT_LT(alloc.ShareOf(0, slot), alloc.ShareOf(0, slot + 1))
        << "shares collapsed at slot " << slot;
  }
  // At least half the budget must follow visibility (floor cap = equal/2),
  // so the most-visible slot clearly outranks the least-visible one.
  EXPECT_GT(alloc.ShareOf(0, 6), 2.0 * alloc.ShareOf(0, 0));
}

// ---- Layered allocator pricing ----

// A 3-layer price sheet: layer q's pair costs `bytes[q]` split evenly
// between color and depth, with an optional sustained-rate estimate.
std::vector<LayerPairBytes> Ladder3(std::size_t l0, std::size_t l1,
                                    std::size_t l2, double sustained0 = 0.0,
                                    double sustained1 = 0.0,
                                    double sustained2 = 0.0) {
  std::vector<LayerPairBytes> layers(3);
  const std::size_t bytes[] = {l0, l1, l2};
  const double sustained[] = {sustained0, sustained1, sustained2};
  for (std::size_t q = 0; q < 3; ++q) {
    layers[q].color_bytes = bytes[q] / 2;
    layers[q].depth_bytes = bytes[q] - bytes[q] / 2;
    layers[q].valid = true;
    layers[q].sustained_interval_bytes = sustained[q];
  }
  return layers;
}

AllocatorConfig LadderConfig() {
  AllocatorConfig config;
  config.interval_ms = 100.0;
  config.burst_credit_intervals = 0.0;  // no banked credit: exact budgets
  config.layers = 3;
  return config;
}

// The keyframe verdict walks top-down and returns the best layer the
// buckets can pay for — monotone in the budget.
TEST(ConferenceAllocator, LayeredVerdictIsMonotoneInBudget) {
  const auto ladder = Ladder3(2000, 8000, 16000);
  int previous = -1;
  for (const double budget : {1000.0, 4000.0, 10000.0, 20000.0}) {
    DownlinkAllocator alloc(2, LadderConfig());
    alloc.BeginInterval(0, 0.0, budget, {1.0});
    const int chosen = alloc.TryForwardLayered(0, 0, true, ladder);
    EXPECT_GE(chosen, previous) << "budget " << budget;
    previous = chosen;
  }
  EXPECT_EQ(previous, 2);  // the largest budget affords the top layer
  // And a budget below even the cheapest layer yields a drop.
  DownlinkAllocator alloc(2, LadderConfig());
  alloc.BeginInterval(0, 0.0, 1000.0, {1.0});
  EXPECT_EQ(alloc.TryForwardLayered(0, 0, true, Ladder3(4000, 8000, 16000)),
            -1);
}

// Before the first BeginInterval nothing is known about the downlink: the
// best valid layer passes undebited.
TEST(ConferenceAllocator, PreIntervalTopValidLayerPassesUndebited) {
  DownlinkAllocator alloc(2, LadderConfig());
  auto ladder = Ladder3(2000, 8000, 16000);
  EXPECT_EQ(alloc.TryForwardLayered(0, 0, true, ladder), 2);
  // Repeatedly — nothing was debited.
  EXPECT_EQ(alloc.TryForwardLayered(0, 0, true, ladder), 2);
  ladder[2].valid = false;  // top half died on the uplink
  EXPECT_EQ(alloc.TryForwardLayered(0, 0, false, ladder), 1);
}

// A keyframe re-anchors the stream, so a layer above the cheapest must be
// sustainable: its per-interval rate within the slot's refill AND the
// post-key credit able to carry an interval of its P-pairs. The cheapest
// valid layer is exempt (sending something beats dropping).
TEST(ConferenceAllocator, KeyframeAnchorsOnlySustainableLayers) {
  DownlinkAllocator alloc(2, LadderConfig());
  alloc.BeginInterval(0, 0.0, 10000.0, {1.0});
  // Top layer is instantaneously cheap but unsustainable; the mid layer
  // fits both horizons (credit 10000 - key 1000 = 9000 >= 8000).
  EXPECT_EQ(alloc.TryForwardLayered(
                0, 0, true, Ladder3(500, 1000, 2000, 1000.0, 8000.0, 50000.0)),
            1);
  // All layers unsustainable: the cheapest still goes through.
  DownlinkAllocator exempt(2, LadderConfig());
  exempt.BeginInterval(0, 0.0, 10000.0, {1.0});
  EXPECT_EQ(exempt.TryForwardLayered(
                0, 0, true, Ladder3(500, 1000, 2000, 1e9, 1e9, 1e9)),
            0);
}

// Forwarding is pair-atomic, so the layered path prices every pair —
// P-pairs included — against the slot's combined color+depth credit.
TEST(ConferenceAllocator, LayeredPPairsPoolTheSlotBuckets) {
  AllocatorConfig config = LadderConfig();
  DownlinkAllocator alloc(2, config);
  alloc.BeginInterval(0, 0.0, 10000.0, {1.0});
  const double split = alloc.SplitOf(0, 0);
  const auto depth_budget = static_cast<std::size_t>(10000.0 * split);
  // A P-pair whose depth half overflows its own bucket but fits the
  // combined credit is forwarded (one-hot candidate, P verdict).
  std::vector<LayerPairBytes> only(3);
  only[1].color_bytes = 100;
  only[1].depth_bytes = depth_budget + 1000;
  only[1].valid = true;
  EXPECT_EQ(alloc.TryForwardLayered(0, 0, false, only), 1);
}

// Admit is the one mid-GOP rule for subscriber streams and relay pipes:
// a keyframe ladder anchors the stream's current layer, a P ladder may
// only continue it, and the two refusals stay distinguishable.
TEST(ConferenceAllocator, AdmitAnchorsOnKeyframesAndHoldsTheLayerMidGop) {
  DownlinkAllocator alloc(2, LadderConfig());
  // Before any keyframe a P ladder has no layer to continue.
  EXPECT_EQ(alloc.CurrentLayer(0, 0), -1);
  EXPECT_EQ(alloc.Admit(0, 0, false, Ladder3(200, 400, 800)),
            DownlinkAllocator::kNoCurrentLayer);
  alloc.BeginInterval(0, 0.0, 3000.0, {1.0});
  // The keyframe anchors the best affordable layer (L2 costs 3200).
  EXPECT_EQ(alloc.Admit(0, 0, true, Ladder3(1000, 2000, 3200)), 1);
  EXPECT_EQ(alloc.CurrentLayer(0, 0), 1);
  // P ladders ride L1 even when the top layer would fit the credit left.
  EXPECT_EQ(alloc.Admit(0, 0, false, Ladder3(50, 100, 200)), 1);
  // Over the remaining credit: a budget drop, and the anchor holds.
  EXPECT_EQ(alloc.Admit(0, 0, false, Ladder3(50, 5000, 200)),
            DownlinkAllocator::kOverBudget);
  EXPECT_EQ(alloc.CurrentLayer(0, 0), 1);
  // The current layer lost a half: nothing else may stand in for it.
  auto gap = Ladder3(50, 100, 200);
  gap[1].valid = false;
  EXPECT_EQ(alloc.Admit(0, 0, false, gap),
            DownlinkAllocator::kNoCurrentLayer);
}

// One sustained-price EMA per (origin, layer): the first keyframe seeds it
// at a quarter of its bytes, P ladders then average in at alpha = 0.2, and
// the price is scaled to pairs per allocation interval.
TEST(ConferenceAllocator, LadderPricerTracksPPairsPerOrigin) {
  LadderPricer pricer(2, 3, 100.0);
  auto key = Ladder3(4000, 8000, 16000);
  key[0].valid = false;
  pricer.Price(0, true, 25.0, key);  // 4 pairs per interval
  EXPECT_DOUBLE_EQ(key[1].sustained_interval_bytes, 0.25 * 8000 * 4);
  EXPECT_DOUBLE_EQ(key[2].sustained_interval_bytes, 0.25 * 16000 * 4);
  EXPECT_DOUBLE_EQ(key[0].sustained_interval_bytes, 0.0);
  auto p = Ladder3(1000, 1000, 1000);
  pricer.Price(0, false, 25.0, p);
  // L0 had no seed, so its first P ladder sets the average outright.
  EXPECT_DOUBLE_EQ(p[0].sustained_interval_bytes, 1000.0 * 4);
  EXPECT_DOUBLE_EQ(p[1].sustained_interval_bytes,
                   (0.8 * 2000 + 0.2 * 1000) * 4);
  // A later keyframe does not move a seeded average.
  auto rekey = Ladder3(9000, 9000, 9000);
  pricer.Price(0, true, 25.0, rekey);
  EXPECT_DOUBLE_EQ(rekey[0].sustained_interval_bytes, 1000.0 * 4);
  // Origins price independently.
  auto other = Ladder3(1000, 1000, 1000);
  pricer.Price(1, false, 25.0, other);
  EXPECT_DOUBLE_EQ(other[1].sustained_interval_bytes, 1000.0 * 4);
}

// ---- Full 4-party conference ----

const ConferenceResult& FourPartyResult() {
  static const ConferenceResult result =
      RunConference(SmallRoster(4, 6), SmallConferenceOptions());
  return result;
}

TEST(ConferenceRun, FourPartyCallProducesStreamsForEveryPair) {
  const ConferenceResult& result = FourPartyResult();
  ASSERT_EQ(result.participants.size(), 4u);
  EXPECT_GT(result.sfu.frames_in, 0u);
  EXPECT_GT(result.sfu.pairs_forwarded, 0u);
  for (const ParticipantResult& p : result.participants) {
    SCOPED_TRACE("participant " + std::to_string(p.index));
    EXPECT_GT(p.frames_sent, 0u);
    EXPECT_GT(p.bytes_sent, 0u);
    ASSERT_EQ(p.streams.size(), 3u);  // N-1 remote slots
    std::size_t rendered = 0;
    for (const RemoteStreamResult& s : p.streams) {
      EXPECT_NE(s.origin, p.index);
      rendered += s.pairs_rendered;
    }
    // Under the small-scale trace at least something must get through.
    EXPECT_GT(rendered, 0u);
  }
}

// Acceptance criterion: the audited invariant. In every closed allocation
// interval the bytes forwarded down a subscriber's link stay within the
// interval's budget plus the credit carried in from earlier intervals.
TEST(ConferenceRun, ForwardedBytesRespectBudgetEveryInterval) {
  const ConferenceResult& result = FourPartyResult();
  ASSERT_FALSE(result.audits.empty());
  for (std::size_t i = 0; i < result.audits.size(); ++i) {
    const AllocationAuditRow& row = result.audits[i];
    SCOPED_TRACE("audit row " + std::to_string(i) + " subscriber " +
                 std::to_string(row.subscriber) + " @" +
                 std::to_string(row.start_ms));
    EXPECT_LE(row.forwarded_bytes,
              row.budget_bytes + row.credit_bytes + 1e-6);
    ASSERT_EQ(row.shares.size(), 3u);
    double sum = 0.0;
    for (double s : row.shares) {
      EXPECT_GE(s, 0.0);
      sum += s;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

// Acceptance criterion: byte-identical per-participant records across
// reruns. Fingerprint() folds every virtual-time field of every stream
// record, audit row, and SFU counter.
TEST(ConferenceDeterminism, IdenticalFingerprintAcrossReruns) {
  const ConferenceResult rerun =
      RunConference(SmallRoster(4, 6), SmallConferenceOptions());
  EXPECT_EQ(rerun.Fingerprint(), FourPartyResult().Fingerprint());
  EXPECT_EQ(rerun.events_dispatched, FourPartyResult().events_dispatched);
}

// The slice codecs are thread-count-invariant, so the whole conference
// must be too (and the cache key deliberately ignores codec_threads).
TEST(ConferenceDeterminism, IdenticalFingerprintAcrossCodecThreadCounts) {
  auto specs = SmallRoster(4, 6);
  const ConferenceOptions options = SmallConferenceOptions();
  for (ParticipantSpec& spec : specs) spec.config.codec_threads = 1;
  const ConferenceResult serial = RunConference(specs, options);
  EXPECT_EQ(serial.Fingerprint(), FourPartyResult().Fingerprint());
  EXPECT_EQ(ConferenceCacheKey(specs, options),
            ConferenceCacheKey(SmallRoster(4, 6), options));
}

TEST(ConferenceDeterminism, CacheKeyDiscriminatesRosterAndTopology) {
  const auto specs = SmallRoster(4, 6);
  const ConferenceOptions options = SmallConferenceOptions();
  const std::string base = ConferenceCacheKey(specs, options);

  ConferenceOptions shared = options;
  shared.downlink_mode = LinkMode::kShared;
  shared.shared_downlink_trace = sim::MakeTrace1(30.0);
  EXPECT_NE(ConferenceCacheKey(specs, shared), base);

  auto moved = specs;
  moved[2].downlink_trace_offset_ms += 250.0;
  EXPECT_NE(ConferenceCacheKey(moved, options), base);
  EXPECT_NE(ConferenceCacheKey(SmallRoster(3, 6), options), base);
}

// ---- Shared-bottleneck topology ----

TEST(ConferenceRun, SharedDownlinkConferenceCompletesAndAudits) {
  auto specs = SmallRoster(3, 5);
  ConferenceOptions options = SmallConferenceOptions();
  options.downlink_mode = LinkMode::kShared;
  options.shared_downlink_trace = sim::MakeTrace2(30.0);
  // One bottleneck carrying all three subscribers gets 3x one link's scale.
  options.shared_downlink_config.bandwidth_scale = 3.0 / 48.0;
  const ConferenceResult result = RunConference(specs, options);
  ASSERT_EQ(result.participants.size(), 3u);
  EXPECT_GT(result.sfu.pairs_forwarded, 0u);
  EXPECT_FALSE(result.audits.empty());
  const ConferenceResult rerun = RunConference(specs, options);
  EXPECT_EQ(rerun.Fingerprint(), result.Fingerprint());
}

// ---- 2-party degenerate case vs the direct point-to-point driver ----

// With two parties the SFU topology collapses toward RunLiVoSession: one
// origin, one subscriber, seat at the world origin, sender culling fed by
// the remote viewer's (delayed) pose. The transport path still differs —
// an extra uplink hop, SFU re-forwarding, allocator gating — so this is a
// tolerance comparison of aggregates, not bit equality. Tolerances are
// documented in DESIGN.md §Conference.
TEST(ConferenceTwoParty, MatchesDirectSessionAggregatesWithinTolerance) {
  const int kFrames = 10;
  const std::string video = "band2";
  const auto& seq = Sequence(video, kFrames);
  const auto viewer =
      sim::GenerateUserTrace(video, sim::TraceStyle::kOrbit, kFrames + 90);
  const auto net = sim::MakeTrace2(30.0);

  // Direct reference: participant 0's content viewed through participant
  // 1's eyes over the shared bandwidth trace.
  core::ReplayOptions direct_options;
  direct_options.bandwidth_scale = 1.0 / 48.0;
  direct_options.metric_every = 1000000;  // skip PSSIM; comparing transport
  const core::SessionResult direct = core::RunLiVoSession(
      seq, viewer, net, SmallConfig(), direct_options);

  // Conference: same downlink for subscriber 1; near-ideal uplinks so the
  // first hop adds (almost) nothing.
  std::vector<ParticipantSpec> specs = SmallRoster(2, kFrames);
  specs[0].sequence = &seq;
  specs[0].downlink_trace = net;
  specs[0].uplink_trace = ConstantTrace(2000.0, 30.0);
  specs[1].sequence = &seq;
  specs[1].user_trace = viewer;
  specs[1].downlink_trace = net;
  specs[1].downlink_trace_offset_ms = 0.0;
  specs[1].uplink_trace = ConstantTrace(2000.0, 30.0);

  ConferenceOptions options = SmallConferenceOptions();
  options.uplink_channel.link.propagation_delay_ms = 0.0;
  // Keep a small ingest buffer: the playout deadline is send + jitter +
  // prop, so a zero buffer would expire every multi-packet frame mid-
  // serialization even on an ideal link.
  options.uplink_channel.jitter_buffer_ms = 30.0;
  const ConferenceResult conf = RunConference(specs, options);

  ASSERT_EQ(conf.participants.size(), 2u);
  const RemoteStreamResult& stream = conf.participants[1].streams[0];
  ASSERT_EQ(stream.origin, 0);

  // Both paths should show a mostly-flowing call at this scale.
  EXPECT_GT(direct.fps, 0.0);
  EXPECT_GT(stream.fps, 0.0);
  // fps within 35% relative, stall within 0.25 absolute: generous enough
  // for the extra hop's jitter, tight enough to catch a broken forwarder
  // (which shows up as stall_rate ~1 or fps ~0).
  const double fps_tol = 0.35 * std::max(direct.fps, stream.fps);
  EXPECT_NEAR(stream.fps, direct.fps, fps_tol);
  EXPECT_NEAR(stream.stall_rate, direct.stall_rate, 0.25);
  // The origin's encode targets track the same downlink estimate, so the
  // uplink bytes should be in the same regime as the direct sender's.
  double direct_bytes = 0.0;
  for (const core::FrameRecord& f : direct.frames) {
    direct_bytes += static_cast<double>(f.sender.color_bytes +
                                        f.sender.depth_bytes);
  }
  const auto conf_sent =
      static_cast<double>(conf.participants[0].bytes_sent);
  EXPECT_GT(conf_sent, 0.2 * direct_bytes);
  EXPECT_LT(conf_sent, 5.0 * direct_bytes + 200000.0);
}

// With two parties the simulcast ladder collapses to a single layer
// (EffectiveLadderLayers): there is exactly one subscriber, so
// encode-once/serve-many buys nothing and the ladder would only burn
// uplink. Everything layer-shaped must report depth 1 and zero switches.
TEST(ConferenceTwoParty, LadderCollapsesToSingleLayer) {
  ConferenceOptions options = SmallConferenceOptions();
  options.ladder_layers = 3;  // explicitly requested, still collapsed
  const ConferenceResult result = RunConference(SmallRoster(2, 5), options);
  ASSERT_EQ(result.sfu.forwarded_by_layer.size(), 1u);
  EXPECT_EQ(result.sfu.forwarded_by_layer[0], result.sfu.pairs_forwarded);
  EXPECT_EQ(result.sfu.layer_switches_up, 0u);
  EXPECT_EQ(result.sfu.layer_switches_down, 0u);
  for (const ParticipantResult& p : result.participants) {
    for (const RemoteStreamResult& s : p.streams) {
      EXPECT_EQ(s.forwarded_by_layer.size(), 1u);
      EXPECT_EQ(s.layer_switches, 0u);
    }
  }
  for (const AllocationAuditRow& row : result.audits) {
    EXPECT_EQ(row.forwarded_by_layer.size(), 1u);
  }
}

// A starved uplink strands ladders: the top pair serializes last behind
// the whole ladder, blows the playout deadline, and dies mid-flight. The
// SFU must forward from the highest surviving layer instead of evicting
// wholesale — otherwise every subscriber of that origin deadlocks
// awaiting a keyframe that each re-key loses the same way.
TEST(ConferenceSalvage, StrandedLaddersForwardFromSurvivingLayers) {
  // Scan a fixed set of starvation rates (deterministic): the stranding
  // window — top pair dies, a lower layer survives — sits between "whole
  // ladder fits" and "nothing fits", and its exact edge moves with the
  // encoder. At least one rate must land inside it.
  ConferenceResult result;
  bool salvaged = false;
  for (const double mbps : {30.0, 60.0, 100.0, 150.0}) {
    auto specs = SmallRoster(3, 8);
    specs[0].uplink_trace = ConstantTrace(mbps, 30.0);
    result = RunConference(specs, SmallConferenceOptions());
    SCOPED_TRACE("uplink " + std::to_string(mbps) + " mbps: salvaged " +
                 std::to_string(result.sfu.pairs_salvaged) + ", evicted " +
                 std::to_string(result.sfu.pairs_evicted_incomplete));
    if (result.sfu.pairs_salvaged > 0) {
      salvaged = true;
      break;
    }
  }
  EXPECT_TRUE(salvaged);
  EXPECT_LE(result.sfu.pairs_salvaged, result.sfu.pairs_completed);
  // The starved origin's subscribers keep rendering: no deadlock.
  for (const ParticipantResult& p : result.participants) {
    if (p.index == 0) continue;
    for (const RemoteStreamResult& s : p.streams) {
      if (s.origin != 0) continue;
      EXPECT_GT(s.pairs_rendered, 0u);
    }
  }
  // Salvaged completions get one verdict per subscriber like any other.
  const std::size_t verdicts =
      result.sfu.pairs_forwarded + result.sfu.pairs_dropped_budget +
      result.sfu.pairs_dropped_congestion +
      result.sfu.pairs_dropped_awaiting_key +
      result.sfu.pairs_dropped_layer_incomplete;
  EXPECT_EQ(verdicts, result.sfu.pairs_completed * 2u);
}

// Stall-aware latency can never beat the survivor-biased delivered-only
// mean: renders arrive in frame order, so a delivered frame's own render
// is its earliest cover, and dropped/stalled frames only add wait. Both
// metrics must also be finite and non-negative on a flowing call.
TEST(ConferenceLatency, StallAwareLatencyDominatesDeliveredOnlyMean) {
  const ConferenceResult& result = FourPartyResult();
  bool saw_rendered_stream = false;
  for (const ParticipantResult& p : result.participants) {
    for (const RemoteStreamResult& s : p.streams) {
      SCOPED_TRACE("subscriber " + std::to_string(p.index) + " origin " +
                   std::to_string(s.origin));
      EXPECT_TRUE(std::isfinite(s.stall_aware_latency_ms));
      EXPECT_GE(s.stall_aware_latency_ms, 0.0);
      if (s.pairs_rendered == 0) continue;
      saw_rendered_stream = true;
      EXPECT_GE(s.stall_aware_latency_ms, s.mean_latency_ms - 1e-9);
    }
  }
  EXPECT_TRUE(saw_rendered_stream);
}

// ---- Gate conservation across party counts and topologies ----

// Every completed pair gets exactly one verdict per remote subscriber:
// forwarded (at some ladder layer) or dropped at one of the four SFU
// gates. The counters must account for all of them, in private and
// shared downlink topologies.
class ConferenceConservation
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ConferenceConservation, EveryCompletedPairGetsOneVerdictPerSubscriber) {
  const auto [parties, shared] = GetParam();
  auto specs = SmallRoster(parties, 4);
  ConferenceOptions options = SmallConferenceOptions();
  if (shared) {
    options.downlink_mode = LinkMode::kShared;
    options.shared_downlink_trace = sim::MakeTrace1(30.0);
    options.shared_downlink_config.bandwidth_scale =
        static_cast<double>(parties) / 48.0;
  }
  const ConferenceResult result = RunConference(specs, options);
  const SfuStats& sfu = result.sfu;
  EXPECT_GT(sfu.pairs_completed, 0u);
  EXPECT_EQ(sfu.pairs_completed * static_cast<std::uint64_t>(parties - 1),
            sfu.pairs_forwarded + sfu.pairs_dropped_budget +
                sfu.pairs_dropped_congestion + sfu.pairs_dropped_awaiting_key +
                sfu.pairs_dropped_layer_incomplete);
  // Ladder conservation: the per-layer forwarded histogram accounts for
  // every forwarded pair, at the SFU and per stream.
  std::uint64_t by_layer = 0;
  for (const std::size_t n : sfu.forwarded_by_layer) by_layer += n;
  EXPECT_EQ(by_layer, sfu.pairs_forwarded);
  for (const ParticipantResult& p : result.participants) {
    for (const RemoteStreamResult& s : p.streams) {
      std::size_t stream_sum = 0;
      for (const std::size_t n : s.forwarded_by_layer) stream_sum += n;
      EXPECT_EQ(stream_sum, s.pairs_forwarded)
          << "subscriber " << p.index << " origin " << s.origin;
    }
  }
  // And the SFU cannot complete more pairs than frames it ingested halves
  // for, nor forward more than were completed.
  EXPECT_LE(sfu.pairs_completed * 2, sfu.frames_in);
  EXPECT_LE(sfu.pairs_forwarded,
            sfu.pairs_completed * static_cast<std::uint64_t>(parties - 1));
}

INSTANTIATE_TEST_SUITE_P(
    PartiesAndTopology, ConferenceConservation,
    ::testing::Combine(::testing::Values(4, 8), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "PartiesShared" : "PartiesPrivate");
    });

// ---- Frame ledger <-> audit reconciliation ----

// With the flight recorder on, the per-interval forwarded bytes summed
// from ledger `forwarded` hops must reproduce every AllocationAuditRow,
// and recording must not perturb the simulation (same fingerprint).
class ConferenceLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::FrameLedger::Get().Reset();
    obs::FrameLedger::Get().SetEnabled(true);
  }
  void TearDown() override {
    obs::FrameLedger::Get().SetEnabled(false);
    obs::FrameLedger::Get().Reset();
  }
};

TEST_F(ConferenceLedgerTest, ForwardedHopsReconcileWithEveryAuditInterval) {
  const ConferenceResult result =
      RunConference(SmallRoster(4, 6), SmallConferenceOptions());
  EXPECT_EQ(result.Fingerprint(), FourPartyResult().Fingerprint());

  const std::vector<obs::LedgerEvent> events =
      obs::FrameLedger::Get().Snapshot();
  ASSERT_FALSE(events.empty());

  // Ledger hop totals match the SFU counters exactly.
  std::map<obs::LedgerHop, std::uint64_t> counts;
  for (const obs::LedgerEvent& e : events) ++counts[e.hop];
  EXPECT_EQ(counts[obs::LedgerHop::kPairComplete], result.sfu.pairs_completed);
  EXPECT_EQ(counts[obs::LedgerHop::kForwarded], result.sfu.pairs_forwarded);
  EXPECT_EQ(counts[obs::LedgerHop::kDroppedBudget],
            result.sfu.pairs_dropped_budget);
  EXPECT_EQ(counts[obs::LedgerHop::kDroppedCongestion],
            result.sfu.pairs_dropped_congestion);
  EXPECT_EQ(counts[obs::LedgerHop::kDroppedAwaitingKey],
            result.sfu.pairs_dropped_awaiting_key);
  EXPECT_EQ(counts[obs::LedgerHop::kDroppedLayerIncomplete],
            result.sfu.pairs_dropped_layer_incomplete);
  EXPECT_EQ(counts[obs::LedgerHop::kEvicted],
            result.sfu.pairs_evicted_incomplete);

  // Bucket forwarded hops into each subscriber's audit intervals and
  // compare byte sums row by row.
  std::map<int, std::vector<const AllocationAuditRow*>> rows;
  for (const AllocationAuditRow& row : result.audits) {
    rows[row.subscriber].push_back(&row);
  }
  std::map<const AllocationAuditRow*, double> ledger_bytes;
  for (const obs::LedgerEvent& e : events) {
    if (e.hop != obs::LedgerHop::kForwarded) continue;
    const auto it = rows.find(e.subscriber);
    ASSERT_NE(it, rows.end()) << "forwarded to unaudited subscriber";
    const AllocationAuditRow* match = nullptr;
    for (const AllocationAuditRow* row : it->second) {
      if (row->start_ms <= e.t_ms + 1e-9 &&
          (match == nullptr || row->start_ms > match->start_ms)) {
        match = row;
      }
    }
    ASSERT_NE(match, nullptr) << "forward precedes first audit interval";
    ledger_bytes[match] += static_cast<double>(e.bytes);
  }
  for (const AllocationAuditRow& row : result.audits) {
    SCOPED_TRACE("subscriber " + std::to_string(row.subscriber) + " @" +
                 std::to_string(row.start_ms));
    EXPECT_NEAR(ledger_bytes[&row], row.forwarded_bytes, 0.5);
  }
}

TEST_F(ConferenceLedgerTest, AtLeast99PercentOfCapturedPairsAreTerminal) {
  (void)RunConference(SmallRoster(4, 6), SmallConferenceOptions());
  const std::vector<obs::LedgerEvent> events =
      obs::FrameLedger::Get().Snapshot();
  // Per (origin, frame): captured must close as skipped, evicted,
  // lost_uplink, or pair_complete with all forwards displayed/stalled.
  std::map<std::pair<int, std::int32_t>, int> state;  // bit flags
  std::map<std::tuple<int, std::int32_t, int>, int> fwd_state;
  for (const obs::LedgerEvent& e : events) {
    const std::pair<int, std::int32_t> key{e.origin, e.frame};
    switch (e.hop) {
      case obs::LedgerHop::kCaptured: state[key] |= 1; break;
      case obs::LedgerHop::kSkippedCongestion:
      case obs::LedgerHop::kEvicted:
      case obs::LedgerHop::kLostUplink:
      case obs::LedgerHop::kPairComplete: state[key] |= 2; break;
      case obs::LedgerHop::kForwarded:
        fwd_state[{e.origin, e.frame, e.subscriber}] |= 1;
        break;
      case obs::LedgerHop::kDisplayed:
      case obs::LedgerHop::kStalled:
        fwd_state[{e.origin, e.frame, e.subscriber}] |= 2;
        break;
      default: break;
    }
  }
  std::uint64_t captured = 0, terminal = 0;
  for (const auto& [key, flags] : state) {
    if ((flags & 1) == 0) continue;
    ++captured;
    if ((flags & 2) != 0) ++terminal;
  }
  ASSERT_GT(captured, 0u);
  EXPECT_GE(static_cast<double>(terminal), 0.99 * static_cast<double>(captured));
  for (const auto& [key, flags] : fwd_state) {
    EXPECT_EQ(flags, 3) << "forwarded pair not displayed/stalled: origin "
                        << std::get<0>(key) << " frame " << std::get<1>(key)
                        << " subscriber " << std::get<2>(key);
  }
}

// The GOP continuity invariant behind the 4-way verdict: a (origin,
// subscriber) stream's forwarded layer may only change on a keyframe
// pair — a P-pair from a layer the decoder never anchored is garbage.
// Verified from the ledger (every forwarded hop carries its layer), and
// the per-layer hop counts must reproduce the SFU histogram.
TEST_F(ConferenceLedgerTest, ForwardedLayerChangesOnlyAtKeyframes) {
  const ConferenceResult result =
      RunConference(SmallRoster(4, 6), SmallConferenceOptions());
  const int layers = static_cast<int>(result.sfu.forwarded_by_layer.size());
  ASSERT_GT(layers, 0);

  // Forwarded hops per (origin, subscriber) stream, in frame order (the
  // ledger appends in virtual-time order, which forwards share per
  // stream — sort by frame index to be explicit).
  std::map<std::pair<int, int>, std::vector<const obs::LedgerEvent*>> streams;
  std::vector<std::uint64_t> by_layer(
      static_cast<std::size_t>(layers), 0);
  const std::vector<obs::LedgerEvent> events =
      obs::FrameLedger::Get().Snapshot();
  for (const obs::LedgerEvent& e : events) {
    if (e.hop != obs::LedgerHop::kForwarded) continue;
    ASSERT_GE(e.layer, 0) << "forwarded hop without a layer";
    ASSERT_LT(e.layer, layers);
    ++by_layer[static_cast<std::size_t>(e.layer)];
    streams[{e.origin, e.subscriber}].push_back(&e);
  }
  ASSERT_FALSE(streams.empty());
  for (std::size_t q = 0; q < by_layer.size(); ++q) {
    EXPECT_EQ(by_layer[q], result.sfu.forwarded_by_layer[q])
        << "ledger layer histogram disagrees at layer " << q;
  }

  std::uint64_t switches = 0;
  for (auto& [key, hops] : streams) {
    std::sort(hops.begin(), hops.end(),
              [](const obs::LedgerEvent* a, const obs::LedgerEvent* b) {
                return a->frame < b->frame;
              });
    int last_layer = -1;
    for (const obs::LedgerEvent* e : hops) {
      if (last_layer >= 0 && e->layer != last_layer) {
        ++switches;
        EXPECT_TRUE(e->keyframe)
            << "origin " << key.first << " -> subscriber " << key.second
            << " switched " << last_layer << " -> " << e->layer
            << " on a P-pair at frame " << e->frame;
      }
      last_layer = e->layer;
    }
  }
  EXPECT_EQ(switches,
            result.sfu.layer_switches_up + result.sfu.layer_switches_down);
}

// ---- Cascaded edge SFUs (DESIGN.md §11) ----

ConferenceOptions CascadeOptions(int regions, int shards = 1) {
  ConferenceOptions options = SmallConferenceOptions();
  options.regions = regions;
  options.shards = shards;
  return options;
}

// 8 parties in 2 regions of 4, chained through the root relay. Shared by
// the cascade tests the same way FourPartyResult() is by the direct ones.
const ConferenceResult& CascadedEightPartyResult() {
  static const ConferenceResult result =
      RunConference(SmallRoster(8, 6), CascadeOptions(2));
  return result;
}

TEST(ConferenceCascade, TwoRegionCallDeliversCrossRegionStreams) {
  const ConferenceResult& result = CascadedEightPartyResult();
  EXPECT_EQ(result.regions, 2);
  EXPECT_EQ(result.shards, 1);
  ASSERT_EQ(result.participants.size(), 8u);
  EXPECT_GT(result.sfu.frames_in, 0u);
  EXPECT_FALSE(result.audits.empty());

  // The relay actually carried traffic and flow control both ways.
  EXPECT_GT(result.relay.ladders_offered, 0u);
  EXPECT_GT(result.relay.prefixes_admitted, 0u);
  EXPECT_GT(result.relay.layers_relayed, 0u);
  EXPECT_GT(result.relay.relay_bytes, 0u);
  EXPECT_GT(result.relay.demand_reports, 0u);

  // Every subscriber watches all 7 remotes; streams from the *other*
  // region must flow end to end (edge -> root -> edge -> subscriber).
  std::size_t cross_region_rendered = 0;
  for (const ParticipantResult& p : result.participants) {
    const int region = RegionOf(p.index, 8, 2);
    ASSERT_EQ(p.streams.size(), 7u);
    for (const RemoteStreamResult& s : p.streams) {
      SCOPED_TRACE("subscriber " + std::to_string(p.index) + " origin " +
                   std::to_string(s.origin));
      EXPECT_GT(s.pairs_forwarded, 0u);
      if (RegionOf(s.origin, 8, 2) != region) {
        cross_region_rendered += s.pairs_rendered;
      }
    }
  }
  EXPECT_GT(cross_region_rendered, 0u);
}

// Acceptance criterion of the sharded runtime: a cascaded conference's
// fingerprint is bit-identical whether its 3 domains (2 edges + root)
// run on 1, 2, or 3 loops, across reruns, and across codec thread
// counts. ConferenceCacheKey ignores both results-invariant knobs.
TEST(ConferenceCascade, FingerprintInvariantAcrossShardsAndReruns) {
  const std::uint64_t fingerprint = CascadedEightPartyResult().Fingerprint();
  for (int shards : {2, 3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const ConferenceResult sharded =
        RunConference(SmallRoster(8, 6), CascadeOptions(2, shards));
    EXPECT_EQ(sharded.shards, shards);
    EXPECT_EQ(sharded.Fingerprint(), fingerprint);
    EXPECT_EQ(sharded.events_dispatched,
              CascadedEightPartyResult().events_dispatched);
  }
  // Requesting more shards than domains clamps (3 domains here).
  auto specs = SmallRoster(8, 6);
  for (ParticipantSpec& spec : specs) spec.config.codec_threads = 1;
  const ConferenceResult serial =
      RunConference(specs, CascadeOptions(2, 8));
  EXPECT_EQ(serial.shards, 3);
  EXPECT_EQ(serial.Fingerprint(), fingerprint);
  EXPECT_EQ(ConferenceCacheKey(specs, CascadeOptions(2, 8)),
            ConferenceCacheKey(SmallRoster(8, 6), CascadeOptions(2)));
  // Rerun at the default single shard.
  EXPECT_EQ(RunConference(SmallRoster(8, 6), CascadeOptions(2)).Fingerprint(),
            fingerprint);
  // But the cascade shape itself is part of the key.
  EXPECT_NE(ConferenceCacheKey(SmallRoster(8, 6), CascadeOptions(2)),
            ConferenceCacheKey(SmallRoster(8, 6), SmallConferenceOptions()));
}

// A direct conference is one coupling domain: the shards knob must change
// neither the results nor the cache key.
TEST(ConferenceCascade, DirectConferenceIgnoresShardKnob) {
  ConferenceOptions options = SmallConferenceOptions();
  options.shards = 4;
  const ConferenceResult result = RunConference(SmallRoster(4, 6), options);
  EXPECT_EQ(result.regions, 1);
  EXPECT_EQ(result.shards, 1);  // clamped to the single domain
  EXPECT_EQ(result.Fingerprint(), FourPartyResult().Fingerprint());
  EXPECT_EQ(ConferenceCacheKey(SmallRoster(4, 6), options),
            ConferenceCacheKey(SmallRoster(4, 6), SmallConferenceOptions()));
}

TEST(ConferenceCascade, RejectsTopologiesTheCascadeCannotServe) {
  // More regions than parties.
  EXPECT_THROW(RunConference(SmallRoster(4, 4), CascadeOptions(5)),
               std::invalid_argument);
  // Shared access links couple every region into one domain.
  ConferenceOptions shared = CascadeOptions(2);
  shared.downlink_mode = LinkMode::kShared;
  shared.shared_downlink_trace = sim::MakeTrace1(30.0);
  EXPECT_THROW(RunConference(SmallRoster(4, 4), shared),
               std::invalid_argument);
  // Degenerate relay knobs.
  ConferenceOptions bad_rate = CascadeOptions(2);
  bad_rate.relay_rate_mbps = 0.0;
  EXPECT_THROW(RunConference(SmallRoster(4, 4), bad_rate),
               std::invalid_argument);
  ConferenceOptions bad_hop = CascadeOptions(2);
  bad_hop.relay_hop_delay_ms = 0.0;
  EXPECT_THROW(RunConference(SmallRoster(4, 4), bad_hop),
               std::invalid_argument);
}

// Acceptance criterion: on uncongested access links and default relay
// pipes, a 2-edge cascade serves every stream with zero stall — every
// expected frame of every remote stream renders, local and cross-region
// alike. Constant fat links isolate the cascade machinery itself: any
// relay drop, mis-sequenced prefix, or lost ladder shows up as a stall.
TEST(ConferenceCascade, UncongestedCascadeRunsStallFree) {
  auto specs = SmallRoster(8, 5);
  for (ParticipantSpec& spec : specs) {
    // Uplinks bound the encode targets; downlinks must then afford every
    // subscriber all 7 remote full ladders even at the share floor, so
    // they are 4x fatter. The relay pipes get the same headroom.
    spec.uplink_trace = ConstantTrace(240.0, 40.0);
    spec.downlink_trace = ConstantTrace(960.0, 40.0);
    spec.uplink_trace_offset_ms = 0.0;
    spec.downlink_trace_offset_ms = 0.0;
  }
  ConferenceOptions options = CascadeOptions(2);
  options.relay_rate_mbps = 100.0;
  const ConferenceResult result = RunConference(specs, options);
  EXPECT_EQ(result.regions, 2);
  EXPECT_EQ(result.relay.prefixes_dropped_budget, 0u);
  for (const ParticipantResult& p : result.participants) {
    for (const RemoteStreamResult& s : p.streams) {
      SCOPED_TRACE("subscriber " + std::to_string(p.index) + " origin " +
                   std::to_string(s.origin));
      EXPECT_DOUBLE_EQ(s.stall_rate, 0.0);
      EXPECT_EQ(s.pairs_rendered, s.frames.size());
    }
  }
}

// Relay-hop conservation in the flight recorder (the same rules
// livo_report --check enforces): every layer ingested at a destination
// edge was forwarded to it by the root, root->edge pipes never lose, and
// nothing is both admitted and dropped for the same (origin, frame).
TEST_F(ConferenceLedgerTest, RelayHopsConserveAcrossTheCascade) {
  const ConferenceResult result =
      RunConference(SmallRoster(8, 6), CascadeOptions(2));

  // Snapshot before touching CascadedEightPartyResult(): its first call
  // runs a conference of its own, which must not pollute these events.
  const std::vector<obs::LedgerEvent> events =
      obs::FrameLedger::Get().Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(result.Fingerprint(), CascadedEightPartyResult().Fingerprint());

  using LayerKey = std::tuple<int, std::int32_t, std::int32_t, int>;
  std::map<LayerKey, int> root_forwarded;  // (origin, frame, layer, dest)
  std::map<LayerKey, int> ingested;
  std::size_t edge_forwarded = 0, relay_dropped = 0;
  std::map<std::pair<int, std::int32_t>, int> edge_state;  // 1=fwd, 2=drop
  for (const obs::LedgerEvent& e : events) {
    switch (e.hop) {
      case obs::LedgerHop::kRelayForwarded:
        if (e.subscriber == -1) {  // edge -> root stage
          ++edge_forwarded;
          edge_state[{e.origin, e.frame}] |= 1;
        } else {  // root -> edge stage: subscriber = -2 - dest_region
          ASSERT_LE(e.subscriber, -2);
          ++root_forwarded[{e.origin, e.frame, e.layer, -2 - e.subscriber}];
        }
        break;
      case obs::LedgerHop::kRelayIngested:
        ASSERT_LE(e.subscriber, -2);
        ++ingested[{e.origin, e.frame, e.layer, -2 - e.subscriber}];
        break;
      case obs::LedgerHop::kRelayDropped:
        ++relay_dropped;
        if (e.subscriber == -1) edge_state[{e.origin, e.frame}] |= 2;
        break;
      default:
        break;
    }
  }
  ASSERT_GT(edge_forwarded, 0u);
  std::size_t root_total = 0;
  for (const auto& [key, n] : root_forwarded) {
    root_total += static_cast<std::size_t>(n);
  }
  // layers_relayed counts layer crossings on *any* pipe: both stages sum.
  EXPECT_EQ(edge_forwarded + root_total, result.relay.layers_relayed);
  // Root->edge pipes never lose: per (origin, frame, layer, dest) the
  // forward and ingest counts match exactly.
  EXPECT_EQ(root_forwarded, ingested);
  // An edge ladder is either admitted or dropped, never both.
  for (const auto& [key, flags] : edge_state) {
    EXPECT_NE(flags, 3) << "origin " << key.first << " frame " << key.second
                        << " both admitted and dropped at its edge";
  }
  // One kRelayDropped record per budget rejection, at either stage.
  EXPECT_EQ(relay_dropped, result.relay.prefixes_dropped_budget);
}

// ---- Metric naming convention (S6) ----

// Every instrument registered during a full conference run must follow
// the dotted lowercase convention: at least two `[a-z0-9_]+` segments.
TEST(ConferenceObsNames, RegistryNamesFollowDottedLowercaseConvention) {
  obs::SetTimeSeriesEnabled(true);
  const ConferenceResult result =
      RunConference(SmallRoster(4, 6), SmallConferenceOptions());
  obs::SetTimeSeriesEnabled(false);
  EXPECT_EQ(result.Fingerprint(), FourPartyResult().Fingerprint());

  const auto valid_segment = [](const std::string& seg) {
    if (seg.empty()) return false;
    for (char c : seg) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
        return false;
      }
    }
    return true;
  };
  const auto check_name = [&](const std::string& name) {
    SCOPED_TRACE("metric name: " + name);
    std::size_t segments = 0;
    std::size_t start = 0;
    bool ok = true;
    while (true) {
      const std::size_t dot = name.find('.', start);
      const std::string seg = name.substr(
          start, dot == std::string::npos ? std::string::npos : dot - start);
      ok = ok && valid_segment(seg);
      ++segments;
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
    EXPECT_TRUE(ok);
    EXPECT_GE(segments, 2u);
  };

  const obs::MetricsSnapshot snap = obs::Registry::Get().Snapshot();
  std::size_t checked = 0;
  for (const auto& [name, value] : snap.counters) {
    check_name(name);
    ++checked;
  }
  for (const auto& [name, value] : snap.gauges) {
    check_name(name);
    ++checked;
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    check_name(h.name);
    ++checked;
  }
  for (const obs::TimeSeriesSnapshot& ts : snap.timeseries) {
    check_name(ts.name);
    ++checked;
  }
  // The conference run must have populated all four instrument families,
  // including the per-stream time series.
  EXPECT_GT(checked, 20u);
  EXPECT_FALSE(snap.timeseries.empty());
}

}  // namespace
}  // namespace livo::conference
