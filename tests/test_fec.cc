// Tests for livo::fec (DESIGN.md §12): the XOR interleaved-parity
// algebra, the visibility-weighted redundancy policy, and the two
// conference-level contracts the subsystem ships under —
//
//  * differential: with the policy disabled (the default), a conference
//    is bit-identical to the pre-FEC pipeline for every dataset
//    sequence, and the policy knobs stay out of the cache key;
//  * determinism: with FEC enabled on lossy links, fingerprints are
//    bit-identical across reruns, codec thread counts, and event-loop
//    shard counts — parity, recovery, and the repair scheduler all run
//    in virtual time off the seeded LinkEmulator.
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "conference/conference.h"
#include "conference/topology.h"
#include "fec/fec.h"
#include "image/image.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::conference {
namespace {

// ---- Policy math ----

TEST(FecPolicy, RedundancyScalesWithLossAndUtility) {
  fec::FecPolicy policy;  // cap 0.5, gain 4.0, floor 0.25
  policy.enabled = true;
  // A disabled policy asks for nothing regardless of the signals.
  EXPECT_DOUBLE_EQ(fec::ChooseRedundancy(fec::FecPolicy{}, 0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(fec::ChooseRedundancy(policy, 0.0, 1.0), 0.0);
  // 5% loss at full utility buys gain * loss = 20% parity.
  EXPECT_NEAR(fec::ChooseRedundancy(policy, 0.05, 1.0), 0.2, 1e-12);
  // Zero utility decays to the floor share of the same budget.
  EXPECT_NEAR(fec::ChooseRedundancy(policy, 0.05, 0.0), 0.2 * 0.25, 1e-12);
  // The cap binds under heavy loss.
  EXPECT_DOUBLE_EQ(fec::ChooseRedundancy(policy, 0.5, 1.0),
                   policy.redundancy_cap);
  // Out-of-range signals clamp instead of exploding.
  EXPECT_DOUBLE_EQ(fec::ChooseRedundancy(policy, -1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(fec::ChooseRedundancy(policy, 2.0, 2.0),
                   policy.redundancy_cap);
}

TEST(FecPolicy, PlanningOverheadIsFullUtilityRedundancy) {
  fec::FecPolicy policy;
  policy.enabled = true;
  for (double loss : {0.0, 0.01, 0.05, 0.2}) {
    EXPECT_DOUBLE_EQ(fec::PlanningOverhead(policy, loss),
                     fec::ChooseRedundancy(policy, loss, 1.0));
  }
}

TEST(FecPolicy, ParityCountCeilsAndClamps) {
  EXPECT_EQ(fec::ParityCount(10, 0.0), 0);
  EXPECT_EQ(fec::ParityCount(10, 0.05), 1);  // ceil(0.5)
  EXPECT_EQ(fec::ParityCount(10, 0.2), 2);
  EXPECT_EQ(fec::ParityCount(10, 5.0), 10);  // never more parity than media
  EXPECT_EQ(fec::ParityCount(0, 0.5), 0);
  EXPECT_EQ(fec::ParityCount(1, 0.01), 1);   // any parity on 1 fragment = 1
}

// ---- XOR algebra ----

std::vector<std::uint8_t> PatternFrame(std::size_t size) {
  std::vector<std::uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>((i * 131 + 17) & 0xFF);
  }
  return data;
}

TEST(FecXor, EveryGroupRecoversItsSingleMissingFragment) {
  constexpr std::size_t kMtu = 32;
  // An odd tail so the last fragment is shorter than the MTU.
  const auto data = PatternFrame(5 * kMtu + 11);  // 6 fragments
  const int fragments = 6;
  for (int parity_count : {1, 2, 3, 6}) {
    SCOPED_TRACE("parity_count " + std::to_string(parity_count));
    const auto parity = fec::EncodeParity(data, kMtu, parity_count);
    ASSERT_EQ(parity.size(), static_cast<std::size_t>(parity_count));
    const auto sizes = fec::ParityPayloadSizes(data.size(), kMtu,
                                               parity_count);
    for (int j = 0; j < parity_count; ++j) {
      EXPECT_EQ(parity[static_cast<std::size_t>(j)].size(),
                sizes[static_cast<std::size_t>(j)]);
    }
    // Drop each fragment in turn and rebuild it from its group.
    for (int missing = 0; missing < fragments; ++missing) {
      std::vector<bool> have(fragments, true);
      have[static_cast<std::size_t>(missing)] = false;
      const int group = missing % parity_count;
      ASSERT_TRUE(fec::CanRecover(have, parity_count, group));
      ASSERT_EQ(fec::MissingFragment(have, parity_count, group), missing);
      const auto rebuilt = fec::RecoverFragment(
          data, kMtu, parity[static_cast<std::size_t>(group)], parity_count,
          group, missing);
      const std::size_t want =
          fec::FragmentSize(data.size(), kMtu,
                            static_cast<std::size_t>(missing));
      ASSERT_EQ(rebuilt.size(), want);
      const std::size_t offset = static_cast<std::size_t>(missing) * kMtu;
      for (std::size_t i = 0; i < want; ++i) {
        ASSERT_EQ(rebuilt[i], data[offset + i]) << "byte " << i;
      }
    }
  }
}

TEST(FecXor, TwoMissingInOneGroupIsUnrecoverable) {
  // With 2 parity packets, fragments {0, 2, 4} share group 0.
  std::vector<bool> have(6, true);
  have[0] = have[2] = false;
  EXPECT_FALSE(fec::CanRecover(have, 2, 0));
  EXPECT_EQ(fec::MissingFragment(have, 2, 0), -1);
  // Group 1 ({1, 3, 5}) is complete: nothing to do there either.
  EXPECT_FALSE(fec::CanRecover(have, 2, 1));
  EXPECT_EQ(fec::MissingFragment(have, 2, 1), -1);
}

// ---- Conference fixtures (mirrors test_conference.cc's small roster) ----

sim::ScaleProfile SmallProfile() {
  sim::ScaleProfile profile;
  profile.camera_count = 2;
  profile.camera_width = 32;
  profile.camera_height = 24;
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

// Two parties both sending `video`, with distinct traces and offsets.
std::vector<ParticipantSpec> TwoPartyRoster(const std::string& video,
                                            int frames) {
  const std::vector<sim::TraceStyle> styles = {sim::TraceStyle::kOrbit,
                                               sim::TraceStyle::kWalkIn};
  std::vector<ParticipantSpec> specs;
  for (int p = 0; p < 2; ++p) {
    ParticipantSpec spec;
    spec.sequence = &Sequence(video, frames);
    spec.user_trace = sim::GenerateUserTrace(
        video, styles[static_cast<std::size_t>(p)], frames + 90);
    spec.uplink_trace = sim::MakeTrace2(30.0);
    spec.downlink_trace = sim::MakeTrace2(30.0);
    spec.uplink_trace_offset_ms = 1000.0 * p;
    spec.downlink_trace_offset_ms = 500.0 * p;
    spec.config = SmallConfig();
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<ParticipantSpec> MixedRoster(int parties, int frames) {
  const std::vector<std::string> videos = {"band2", "toddler4", "dance5",
                                           "office1", "pizza1"};
  const std::vector<sim::TraceStyle> styles = {
      sim::TraceStyle::kOrbit, sim::TraceStyle::kWalkIn,
      sim::TraceStyle::kFocus, sim::TraceStyle::kOrbit,
      sim::TraceStyle::kWalkIn};
  std::vector<ParticipantSpec> specs;
  for (int p = 0; p < parties; ++p) {
    ParticipantSpec spec;
    const std::string& video =
        videos[static_cast<std::size_t>(p) % videos.size()];
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

ConferenceOptions BaseOptions() {
  ConferenceOptions options;
  options.bandwidth_scale = 1.0 / 48.0;
  return options;
}

// Seeded iid loss on every access link (private and shared configs — the
// loss table in bench_conference applies the same four).
ConferenceOptions LossyFecOptions(double loss_rate) {
  ConferenceOptions options = BaseOptions();
  for (net::LinkConfig* link :
       {&options.uplink_channel.link, &options.downlink_channel.link,
        &options.shared_uplink_config, &options.shared_downlink_config}) {
    link->loss_rate = loss_rate;
  }
  options.fec.enabled = true;
  return options;
}

// ---- Differential: FEC off reproduces the pre-FEC pipeline ----

// The subsystem must be inert when disabled: same fingerprint as a run
// that never mentions the policy, for every dataset sequence, even when
// the (disabled) knobs are tuned — and the knobs stay out of the cache
// key so cached pre-FEC results remain valid.
TEST(FecDifferential, DisabledRunsReproduceGoldenFingerprints) {
  const int kFrames = 4;
  for (const std::string video :
       {"band2", "dance5", "office1", "pizza1", "toddler4"}) {
    SCOPED_TRACE(video);
    const auto specs = TwoPartyRoster(video, kFrames);
    const ConferenceOptions base = BaseOptions();
    const ConferenceResult golden = RunConference(specs, base);

    ConferenceOptions tuned = base;
    tuned.fec.redundancy_cap = 0.9;
    tuned.fec.loss_gain = 8.0;
    tuned.fec.utility_floor = 0.0;
    ASSERT_FALSE(tuned.fec.enabled);
    const ConferenceResult rerun = RunConference(specs, tuned);
    EXPECT_EQ(rerun.Fingerprint(), golden.Fingerprint());
    EXPECT_EQ(rerun.events_dispatched, golden.events_dispatched);
    EXPECT_EQ(ConferenceCacheKey(specs, tuned),
              ConferenceCacheKey(specs, base));

    // Enabling the policy is a different experiment: the key must split.
    ConferenceOptions enabled = base;
    enabled.fec.enabled = true;
    EXPECT_NE(ConferenceCacheKey(specs, enabled),
              ConferenceCacheKey(specs, base));
  }
}

// ---- Determinism under loss ----

TEST(FecLossDeterminism, LossyFingerprintStableAcrossRerunsAndThreads) {
  // Long enough (and lossy enough) for the feedback loss estimate to
  // warm up and actually buy parity on these tiny test frames.
  const int kFrames = 10;
  const auto specs = MixedRoster(2, kFrames);
  const ConferenceOptions options = LossyFecOptions(0.1);
  const ConferenceResult first = RunConference(specs, options);

  // The run actually exercised the subsystem, not a degenerate no-op.
  std::uint64_t parity_bytes = 0;
  for (const ParticipantResult& p : first.participants) {
    parity_bytes += p.uplink_parity_bytes + p.downlink_parity_bytes;
  }
  EXPECT_GT(parity_bytes, 0u);

  const ConferenceResult rerun = RunConference(specs, options);
  EXPECT_EQ(rerun.Fingerprint(), first.Fingerprint());
  EXPECT_EQ(rerun.events_dispatched, first.events_dispatched);

  auto serial = MixedRoster(2, kFrames);
  for (ParticipantSpec& spec : serial) spec.config.codec_threads = 1;
  EXPECT_EQ(RunConference(serial, options).Fingerprint(),
            first.Fingerprint());
}

TEST(FecLossDeterminism, CascadedLossyFingerprintStableAcrossShards) {
  const int kFrames = 5;
  const auto specs = MixedRoster(8, kFrames);
  ConferenceOptions options = LossyFecOptions(0.05);
  options.regions = 2;
  const ConferenceResult base = RunConference(specs, options);
  for (int shards : {3}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ConferenceOptions sharded = options;
    sharded.shards = shards;
    const ConferenceResult result = RunConference(specs, sharded);
    EXPECT_EQ(result.shards, shards);
    EXPECT_EQ(result.Fingerprint(), base.Fingerprint());
    EXPECT_EQ(result.events_dispatched, base.events_dispatched);
  }
}

// Gilbert–Elliott loss is part of the determinism surface too: the model
// and its seed live in LinkConfig, so a rerun replays the identical
// burst pattern.
TEST(FecLossDeterminism, GilbertElliottRunsAreReproducible) {
  const int kFrames = 6;
  const auto specs = MixedRoster(2, kFrames);
  ConferenceOptions options = LossyFecOptions(0.05);
  for (net::LinkConfig* link :
       {&options.uplink_channel.link, &options.downlink_channel.link,
        &options.shared_uplink_config, &options.shared_downlink_config}) {
    link->loss_model = net::LossModel::kGilbertElliott;
  }
  const ConferenceResult first = RunConference(specs, options);
  EXPECT_EQ(RunConference(specs, options).Fingerprint(),
            first.Fingerprint());

  // The model is a cache-key dimension: iid and GE runs never collide.
  ConferenceOptions iid = LossyFecOptions(0.05);
  EXPECT_NE(ConferenceCacheKey(specs, options),
            ConferenceCacheKey(specs, iid));
}

// ---- Golden fingerprints ----

// The behaviour contract across builds: these values were captured once
// and must never be re-captured to make a change pass. Every other
// fingerprint test compares two runs of one build, so only this one
// catches a refactor that moves a decision. The direct 8-party roster
// hits congestion, budget and awaiting-key drops and layer switches; the
// lossy 2-region cascade adds layer-incomplete drops, evictions, salvage,
// FEC, and relay admits and drops.
TEST(ConferenceGolden, FingerprintsPinnedOnDirectAndCascadedRosters) {
  const int kFrames = 24;
  EXPECT_EQ(RunConference(MixedRoster(8, kFrames), BaseOptions())
                .Fingerprint(),
            0x67b1815ecf3da11bull);

  ConferenceOptions cascade = LossyFecOptions(0.05);
  cascade.regions = 2;
  EXPECT_EQ(RunConference(MixedRoster(4, kFrames), cascade).Fingerprint(),
            0x4aeeba2192c37354ull);
}

}  // namespace
}  // namespace livo::conference
