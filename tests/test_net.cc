// Unit tests for livo::net — link emulation, GCC-style estimation, the
// WebRTC-like video channel, and the TCP-like reliable channel.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "net/gcc.h"
#include "net/link.h"
#include "net/transport.h"
#include "sim/nettrace.h"

namespace livo::net {
namespace {

sim::BandwidthTrace FlatTrace(double mbps, double duration_s = 60.0) {
  sim::BandwidthTrace t;
  t.name = "flat";
  t.mbps.assign(static_cast<std::size_t>(duration_s * 10), mbps);
  return t;
}

Packet MakePacket(std::uint64_t seq, std::size_t bytes = 1000) {
  Packet p;
  p.sequence = seq;
  p.payload_bytes = bytes;
  p.fragment_count = 1;
  return p;
}

TEST(LinkEmulator, DeliversAfterSerializationAndPropagation) {
  LinkConfig config;
  config.propagation_delay_ms = 10.0;
  LinkEmulator link(FlatTrace(8.0), config);  // 8 Mbps = 8000 bits/ms
  ASSERT_TRUE(link.Send(MakePacket(0, 960), 0.0));  // 1000B wire = 1 ms
  EXPECT_TRUE(link.Poll(5.0).empty());              // still propagating
  const auto delivered = link.Poll(12.0);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_NEAR(delivered[0].arrival_time_ms, 11.0, 1e-9);
}

TEST(LinkEmulator, QueueingDelaysLaterPackets) {
  LinkConfig config;
  config.propagation_delay_ms = 0.0;
  LinkEmulator link(FlatTrace(0.8), config);  // 800 bits/ms: 10 ms/packet
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(link.Send(MakePacket(i, 960), 0.0));
  }
  const auto delivered = link.Poll(100.0);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_NEAR(delivered[0].arrival_time_ms, 10.0, 1e-9);
  EXPECT_NEAR(delivered[1].arrival_time_ms, 20.0, 1e-9);
  EXPECT_NEAR(delivered[2].arrival_time_ms, 30.0, 1e-9);
}

TEST(LinkEmulator, DropTailBeyondQueueBound) {
  LinkConfig config;
  config.max_queue_delay_ms = 25.0;
  LinkEmulator link(FlatTrace(0.8), config);  // 10 ms per packet
  int accepted = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    accepted += link.Send(MakePacket(i, 960), 0.0);
  }
  // Queue holds ~25 ms = ~2-3 packets beyond the in-service one.
  EXPECT_LT(accepted, 5);
  EXPECT_GT(link.packets_dropped(), 5u);
}

TEST(LinkEmulator, RandomLossDropsApproximatelyAtRate) {
  LinkConfig config;
  config.loss_rate = 0.2;
  LinkEmulator link(FlatTrace(100.0), config);
  int accepted = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    accepted += link.Send(MakePacket(i, 100), i * 1.0);
  }
  EXPECT_NEAR(accepted, 800, 60);

  // Gilbert–Elliott bursts over 1% good-state loss, pinned at capture: the
  // chain's two transition probabilities and its bad-state loss each move
  // the delivered count and the stationary mean loss.
  LinkConfig bursty_config;
  bursty_config.loss_model = LossModel::kGilbertElliott;
  bursty_config.loss_rate = 0.01;
  LinkEmulator bursty(FlatTrace(100.0), bursty_config);
  int delivered = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    delivered += bursty.Send(MakePacket(i, 100), i * 1.0);
  }
  EXPECT_EQ(delivered, 9556);
  EXPECT_EQ(MeanLossRate(bursty_config), 0x1.7b425ed097b42p-5)
      << std::hexfloat << MeanLossRate(bursty_config);
}

TEST(LinkEmulator, CapacityFollowsTrace) {
  sim::BandwidthTrace trace;
  trace.mbps = {10.0, 100.0};
  trace.sample_interval_ms = 100.0;
  LinkConfig config;
  config.bandwidth_scale = 0.5;
  LinkEmulator link(trace, config);
  EXPECT_DOUBLE_EQ(link.CapacityBitsPerMs(0.0), 5000.0);
  EXPECT_DOUBLE_EQ(link.CapacityBitsPerMs(150.0), 50000.0);
}

// ---- GCC estimator ----

FeedbackReport CleanReport(double delivered_bps, double interval_ms = 100.0) {
  FeedbackReport r;
  r.interval_ms = interval_ms;
  r.received_bytes =
      static_cast<std::size_t>(delivered_bps / 8.0 * interval_ms / 1000.0);
  r.received_packets = 20;
  r.lost_packets = 0;
  r.mean_delay_ms = 5.0;
  r.delay_gradient_ms = 0.0;
  return r;
}

TEST(GccEstimator, IncreasesWhenStable) {
  GccConfig config;
  config.initial_bps = 1e6;
  GccEstimator gcc(config);
  for (int i = 0; i < 10; ++i) gcc.OnFeedback(CleanReport(1e6));
  EXPECT_GT(gcc.EstimateBps(), 1.3e6);
  EXPECT_EQ(gcc.state(), GccEstimator::State::kIncrease);

  // Light loss still increases below 2%: 39 of 2000 packets lost (1.95%)
  // increases, 41 of 2000 (2.05%) holds.
  for (const int lost : {39, 41}) {
    GccEstimator lossy(config);
    FeedbackReport report = CleanReport(1e6);
    report.received_packets = 2000 - lost;
    report.lost_packets = lost;
    lossy.OnFeedback(report);
    EXPECT_EQ(lossy.state(), lost < 40 ? GccEstimator::State::kIncrease
                                       : GccEstimator::State::kHold)
        << lost << " of 2000 lost";
  }
}

TEST(GccEstimator, BacksOffOnDelayGradient) {
  GccConfig config;
  config.initial_bps = 2e6;
  GccEstimator gcc(config);
  FeedbackReport congested = CleanReport(2e6);
  congested.delay_gradient_ms = 5.0;  // queues building fast
  congested.mean_delay_ms = 60.0;
  gcc.OnFeedback(congested);
  gcc.OnFeedback(congested);
  EXPECT_LT(gcc.EstimateBps(), 2e6);
  EXPECT_EQ(gcc.state(), GccEstimator::State::kDecrease);
}

TEST(GccEstimator, BacksOffOnHeavyLoss) {
  GccConfig config;
  config.initial_bps = 2e6;
  GccEstimator gcc(config);
  FeedbackReport lossy = CleanReport(2e6);
  lossy.lost_packets = 5;  // 20% loss
  gcc.OnFeedback(lossy);
  EXPECT_LT(gcc.EstimateBps(), 2e6);

  // The loss-based decrease starts above 10%: 204 of 2000 packets lost
  // (10.2%) backs off, 196 of 2000 (9.8%) only holds.
  for (const int lost : {196, 204}) {
    GccEstimator at(config);
    FeedbackReport report = CleanReport(2e6);
    report.received_packets = 2000 - lost;
    report.lost_packets = lost;
    at.OnFeedback(report);
    EXPECT_EQ(at.state(), lost > 200 ? GccEstimator::State::kDecrease
                                     : GccEstimator::State::kHold)
        << lost << " of 2000 lost";
  }
}

TEST(GccEstimator, RespectsBounds) {
  GccConfig config;
  config.initial_bps = 1e6;
  config.min_bps = 0.5e6;
  config.max_bps = 4e6;
  GccEstimator gcc(config);
  for (int i = 0; i < 200; ++i) gcc.OnFeedback(CleanReport(4e6));
  EXPECT_LE(gcc.EstimateBps(), 4e6);
  FeedbackReport terrible = CleanReport(0.1e6);
  terrible.lost_packets = 15;
  for (int i = 0; i < 50; ++i) gcc.OnFeedback(terrible);
  EXPECT_GE(gcc.EstimateBps(), 0.5e6);
}

TEST(GccEstimator, ConvergesTowardCapacityInClosedLoop) {
  // Closed loop: the "sender" transmits at the estimate over a 5 Mbps
  // bottleneck; the estimator should settle within ~60-100% of capacity.
  GccConfig config;
  config.initial_bps = 1e6;
  GccEstimator gcc(config);
  const double capacity_bps = 5e6;
  double queue_ms = 0.0;
  double last_mean_delay = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double send_bps = gcc.EstimateBps();
    const double delivered = std::min(send_bps, capacity_bps);
    // Queue grows by the excess (in ms of backlog at capacity rate).
    queue_ms += (send_bps - capacity_bps) / capacity_bps * 100.0;
    queue_ms = std::max(0.0, std::min(queue_ms, 400.0));
    FeedbackReport r = CleanReport(delivered);
    r.mean_delay_ms = 5.0 + queue_ms;
    r.delay_gradient_ms = r.mean_delay_ms - last_mean_delay;
    last_mean_delay = r.mean_delay_ms;
    gcc.OnFeedback(r);
  }
  EXPECT_GT(gcc.EstimateBps(), 0.55 * capacity_bps);
  EXPECT_LT(gcc.EstimateBps(), 1.25 * capacity_bps);
}

// ---- VideoChannel ----

std::shared_ptr<const std::vector<std::uint8_t>> Blob(std::size_t bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(bytes, 0xab);
}

ChannelConfig FastChannel() {
  ChannelConfig c;
  c.link.propagation_delay_ms = 10.0;
  c.jitter_buffer_ms = 50.0;
  return c;
}

TEST(VideoChannel, DeliversFrameAfterJitterBuffer) {
  VideoChannel channel(FlatTrace(50.0), FastChannel());
  channel.SendFrame(0, 0, true, Blob(5000), 0.0);
  for (double t = 0; t <= 49.0; t += 1.0) channel.Step(t);
  EXPECT_TRUE(channel.PopReady(49.0).empty());  // before release time
  channel.Step(51.0);
  const auto ready = channel.PopReady(51.0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].frame_index, 0u);
  EXPECT_TRUE(ready[0].keyframe);
  ASSERT_TRUE(ready[0].data);
  EXPECT_EQ(ready[0].data->size(), 5000u);
}

TEST(VideoChannel, FramesArriveInOrderAcrossStreams) {
  VideoChannel channel(FlatTrace(50.0), FastChannel());
  for (std::uint32_t f = 0; f < 5; ++f) {
    channel.SendFrame(0, f, f == 0, Blob(3000), f * 33.0);
    channel.SendFrame(1, f, f == 0, Blob(6000), f * 33.0);
  }
  std::vector<ReceivedFrame> all;
  for (double t = 0; t < 400.0; t += 1.0) {
    channel.Step(t);
    for (auto& r : channel.PopReady(t)) all.push_back(r);
  }
  EXPECT_EQ(all.size(), 10u);
  std::uint32_t last_color = 0, last_depth = 0;
  for (const auto& r : all) {
    auto& last = r.stream_id == 0 ? last_color : last_depth;
    EXPECT_GE(r.frame_index, last);
    last = r.frame_index;
  }
  EXPECT_EQ(channel.stats().frames_delivered, 10u);
  EXPECT_EQ(channel.stats().frames_lost, 0u);

  // Frames that share an index leave in completion order: frame 0 sent on
  // 20 streams completes in send order and is released at one instant.
  VideoChannel wide(FlatTrace(50.0), FastChannel());
  std::vector<std::uint32_t> sent;
  for (std::uint32_t s = 0; s < 20; ++s) {
    wide.SendFrame(s, 0, true, Blob(1000), 0.0);
    sent.push_back(s);
  }
  for (double t = 0; t < 60.0; t += 1.0) wide.Step(t);
  std::vector<std::uint32_t> released;
  for (const auto& r : wide.PopReady(60.0)) released.push_back(r.stream_id);
  EXPECT_EQ(released, sent);
}

TEST(VideoChannel, NackRecoversIsolatedLoss) {
  ChannelConfig config = FastChannel();
  config.link.loss_rate = 0.05;
  config.link.seed = 11;
  VideoChannel channel(FlatTrace(80.0), config);
  std::size_t delivered = 0;
  std::uint32_t next = 0;
  for (double t = 0; t < 1400.0; t += 1.0) {
    if (next < 30 && t >= next * 33.0) {
      channel.SendFrame(0, next, next == 0, Blob(20000), t);  // 17 fragments
      ++next;
    }
    channel.Step(t);
    delivered += channel.PopReady(t).size();
  }
  // With ~5% packet loss and 17 fragments/frame, ~58% of frames would lose
  // at least one packet; NACK recovery should deliver nearly all of them.
  EXPECT_GE(delivered, 27u);
  EXPECT_GT(channel.stats().packets_retransmitted, 0u);
}

TEST(VideoChannel, UndeliverableFrameRaisesKeyframeRequest) {
  ChannelConfig config = FastChannel();
  config.enable_nack = false;       // no recovery
  config.link.loss_rate = 0.6;      // heavy loss
  config.link.seed = 3;
  VideoChannel channel(FlatTrace(50.0), config);
  std::uint32_t next = 0;
  for (double t = 0; t < 700.0; t += 1.0) {
    if (next < 10 && t >= next * 33.0) {
      channel.SendFrame(0, next, next == 0, Blob(12000), t);
      ++next;
    }
    channel.Step(t);
  }
  EXPECT_GT(channel.stats().frames_lost, 0u);
  EXPECT_TRUE(channel.TakeKeyframeRequest(0));
  EXPECT_FALSE(channel.TakeKeyframeRequest(0));  // one-shot

  // A stream's first request is not throttled: frame 0, lost before
  // t = 300 ms, raises one.
  VideoChannel first(FlatTrace(50.0), config);
  first.SendFrame(0, 0, true, Blob(12000), 0.0);
  for (double t = 0; t <= 150.0; t += 1.0) first.Step(t);
  EXPECT_EQ(first.stats().frames_lost, 1u);
  EXPECT_TRUE(first.TakeKeyframeRequest(0));

  // The next request passes only once more than kKeyframeRequestThrottleMs
  // have gone by: frame 1, sent 300 ms after frame 0, is detected lost
  // exactly 300 ms after it (t = 361 against 61) and raises none.
  for (double t = 151.0; t < 300.0; t += 1.0) first.Step(t);
  first.SendFrame(0, 1, false, Blob(12000), 300.0);
  for (double t = 300.0; t <= 450.0; t += 1.0) first.Step(t);
  EXPECT_EQ(first.stats().frames_lost, 2u);
  EXPECT_EQ(first.stats().keyframe_requests, 1u);
  EXPECT_FALSE(first.TakeKeyframeRequest(0));
}

TEST(VideoChannel, RttTracksPropagationDelay) {
  VideoChannel channel(FlatTrace(100.0), FastChannel());
  for (std::uint32_t f = 0; f < 10; ++f) {
    channel.SendFrame(0, f, f == 0, Blob(2000), f * 33.0);
  }
  for (double t = 0; t < 500.0; t += 1.0) channel.Step(t);
  EXPECT_NEAR(channel.SmoothedRttMs(), 20.0, 10.0);
}

// ---- Reassembly hands out the sender's buffer ----

TEST(VideoChannel, DefaultPathIsZeroCopy) {
  VideoChannel channel(FlatTrace(50.0), FastChannel());
  const auto payload = Blob(5000);  // 5 fragments at the 1200 B MTU
  channel.SendFrame(0, 0, true, payload, 0.0);
  for (double t = 0; t < 80.0; t += 1.0) channel.Step(t);
  const auto ready = channel.PopReady(80.0);
  ASSERT_EQ(ready.size(), 1u);
  // The sender's buffer travels end-to-end: same object, nothing copied.
  EXPECT_EQ(ready[0].data.get(), payload.get());
}

TEST(VideoChannel, ParityRecoveredFrameCarriesTheSendersBuffer) {
  ChannelConfig config = FastChannel();
  config.enable_fec = true;
  config.enable_nack = false;  // parity is the only repair
  config.link.loss_rate = 0.05;
  config.link.seed = 7;
  VideoChannel channel(FlatTrace(50.0), config);
  channel.SetStreamRedundancy(0, 0.5);
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> sent;
  std::vector<ReceivedFrame> released;
  for (double t = 0; t <= 1000.0; t += 1.0) {
    if (sent.size() < 20 && t >= static_cast<double>(sent.size()) * 33.0) {
      const auto index = static_cast<std::uint32_t>(sent.size());
      sent.push_back(Blob(12000));  // 10 fragments
      channel.SendFrame(0, index, index == 0, sent.back(), t);
    }
    channel.Step(t);
    for (auto& r : channel.PopReady(t)) released.push_back(std::move(r));
  }
  EXPECT_GT(channel.stats().fragments_recovered, 0u);
  EXPECT_EQ(channel.stats().frames_delivered, 20u);
  EXPECT_EQ(channel.stats().packets_retransmitted, 0u);
  // Each frame is released once, in order, and a frame completed from
  // parity still hands out the sender's own buffer.
  ASSERT_EQ(released.size(), sent.size());
  for (std::size_t i = 0; i < released.size(); ++i) {
    EXPECT_EQ(released[i].frame_index, i);
    EXPECT_EQ(released[i].data.get(), sent[i].get());
  }
}

// ---- Event-time queries (drive the runtime::EventLoop integration) ----

TEST(LinkEmulator, NextEventTimeMsTracksFrontArrival) {
  LinkConfig config;
  config.propagation_delay_ms = 10.0;
  LinkEmulator link(FlatTrace(8.0), config);  // 1000 B wire = 1 ms
  EXPECT_TRUE(std::isinf(link.NextEventTimeMs()));
  ASSERT_TRUE(link.Send(MakePacket(0, 960), 0.0));
  EXPECT_NEAR(link.NextEventTimeMs(), 11.0, 1e-9);
  link.Poll(link.NextEventTimeMs());
  EXPECT_TRUE(std::isinf(link.NextEventTimeMs()));
}

TEST(VideoChannel, StepAtNextEventTimesDeliversViaFrameSink) {
  VideoChannel channel(FlatTrace(50.0), FastChannel());
  std::vector<ReceivedFrame> delivered;
  std::vector<double> release_times;
  channel.SetFrameSink(
      [&](std::vector<ReceivedFrame> frames, double now_ms) {
        for (auto& f : frames) delivered.push_back(std::move(f));
        release_times.push_back(now_ms);
      });
  channel.SendFrame(0, 0, true, Blob(5000), 0.0);
  channel.SendFrame(0, 1, false, Blob(5000), 33.0);
  // Event-driven drain: jump straight between the channel's own event
  // times instead of polling a 1 ms grid.
  int steps = 0;
  for (double next = channel.NextEventTimeMs(); next < 500.0 && steps < 64;
       next = channel.NextEventTimeMs(), ++steps) {
    channel.Step(next);
  }
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].frame_index, 0u);
  EXPECT_EQ(delivered[1].frame_index, 1u);
  // Frames release when the jitter buffer says so, never earlier.
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_GE(release_times[i], delivered[i].release_time_ms);
  }
  // PopReady saw nothing: the sink consumed every release.
  EXPECT_TRUE(channel.PopReady(500.0).empty());
  EXPECT_EQ(channel.stats().frames_delivered, 2u);
}

TEST(ReliableChannel, NextEventTimeAndSinkDrainDeliveries) {
  LinkConfig config;
  config.propagation_delay_ms = 5.0;
  ReliableChannel channel(FlatTrace(8.0), config);
  channel.SendMessage(0, 50000, 0.0);
  channel.SendMessage(1, 50000, 0.0);
  std::vector<ReliableChannel::Delivered> got;
  channel.SetDeliverySink(
      [&](const ReliableChannel::Delivered& d) { got.push_back(d); });
  int steps = 0;
  for (double next = channel.NextEventTimeMs();
       !std::isinf(next) && steps < 256;
       next = channel.NextEventTimeMs(), ++steps) {
    channel.Step(next);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].frame_index, 0u);
  EXPECT_EQ(got[1].frame_index, 1u);
  EXPECT_GT(got[0].arrival_time_ms, 50.0);   // ~50 ms serialization + 5 ms
  EXPECT_GT(got[1].arrival_time_ms, got[0].arrival_time_ms);
}

// ---- ReliableChannel ----

TEST(ReliableChannel, NeverLosesButWaits) {
  LinkConfig config;
  config.propagation_delay_ms = 5.0;
  ReliableChannel channel(FlatTrace(8.0), config);  // 8000 bits/ms... 1 KB/ms
  channel.SendMessage(0, 50000, 0.0);  // ~50 ms serialization
  channel.SendMessage(1, 50000, 0.0);
  EXPECT_TRUE(channel.PopReady(30.0).empty());
  const auto first = channel.PopReady(60.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].frame_index, 0u);
  const auto second = channel.PopReady(200.0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].frame_index, 1u);
}

TEST(ReliableChannel, LossReducesGoodput) {
  LinkConfig clean, lossy;
  lossy.loss_rate = 0.5;
  ReliableChannel a(FlatTrace(8.0), clean), b(FlatTrace(8.0), lossy);
  a.SendMessage(0, 80000, 0.0);
  b.SendMessage(0, 80000, 0.0);
  const auto ra = a.PopReady(1000.0);
  const auto rb = b.PopReady(1000.0);
  ASSERT_EQ(ra.size(), 1u);
  ASSERT_EQ(rb.size(), 1u);
  // Retransmissions roughly double the transfer time at 50% loss.
  EXPECT_GT(rb[0].arrival_time_ms, 1.8 * ra[0].arrival_time_ms);
}

TEST(ReliableChannel, BacklogReflectsQueuedBytes) {
  LinkConfig config;
  ReliableChannel channel(FlatTrace(0.8), config);  // slow: 100 B/ms
  channel.SendMessage(0, 100000, 0.0);
  EXPECT_GT(channel.BacklogBytes(1.0), 0u);
  channel.PopReady(1e7);
  EXPECT_EQ(channel.BacklogBytes(1e7), 0u);
}

}  // namespace
}  // namespace livo::net
