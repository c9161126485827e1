#include "runtime/session_actor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.h"

namespace livo::runtime {
namespace {

// Same instrument names as the reference driver in core/session.cc: the
// registry hands back the same counters, so dashboards see one stream of
// session telemetry regardless of which driver ran.
struct SessionMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& frames_sent = reg.GetCounter("session.frames_sent");
  obs::Counter& frames_rendered = reg.GetCounter("session.frames_rendered");
  obs::Counter& frames_stalled = reg.GetCounter("session.frames_stalled");
  obs::Counter& congestion_skips = reg.GetCounter("session.congestion_skips");
  obs::Histogram& transport_ms = reg.GetHistogram("session.transport_ms");
  obs::Histogram& latency_ms = reg.GetHistogram("session.latency_ms");
};

SessionMetrics& Metrics() {
  static SessionMetrics metrics;
  return metrics;
}

}  // namespace

SessionActor::SessionActor(EventLoop& loop, SessionSpec spec)
    : loop_(loop), spec_(std::move(spec)) {
  net::ChannelConfig channel_config = spec_.options.channel;
  channel_config.link.bandwidth_scale = spec_.options.bandwidth_scale;
  // Warm-start the estimator near the scaled trace mean (real deployments
  // remember prior sessions; the paper's sessions are minutes long, so the
  // ramp-up transient is negligible there).
  channel_config.gcc.initial_bps = spec_.net_trace.MeanMbps() *
                                   spec_.options.bandwidth_scale * 1e6 * 0.8 *
                                   spec_.gcc_initial_share;
  channel_ = std::make_unique<net::VideoChannel>(
      spec_.net_trace.Replayed(spec_.options.trace_time_accel,
                               spec_.options.trace_offset_ms),
      channel_config);
  capacity_mbps_ = spec_.net_trace.MeanMbps();
  link_scale_ = spec_.options.bandwidth_scale;
  Init();
}

SessionActor::SessionActor(EventLoop& loop, SessionSpec spec,
                           SharedLink& bottleneck,
                           const sim::BandwidthTrace& bottleneck_trace,
                           double bottleneck_scale)
    : loop_(loop), spec_(std::move(spec)), bottleneck_(&bottleneck) {
  net::ChannelConfig channel_config = spec_.options.channel;
  channel_config.link.bandwidth_scale = bottleneck_scale;
  channel_config.gcc.initial_bps = bottleneck_trace.MeanMbps() *
                                   bottleneck_scale * 1e6 * 0.8 *
                                   spec_.gcc_initial_share;
  channel_ = bottleneck.Connect(channel_config);
  capacity_mbps_ = bottleneck_trace.MeanMbps();
  link_scale_ = bottleneck_scale;
  Init();
}

void SessionActor::Init() {
  obs::AutoInitFromEnv();
  result_.scheme = spec_.options.scheme_name;
  result_.video = spec_.sequence->spec.name;
  result_.user_trace = sim::StyleName(spec_.user_trace.style);
  result_.net_trace = bottleneck_ ? "shared" : spec_.net_trace.name;
  result_.target_fps = spec_.config.fps;

  sender_ = std::make_unique<core::LiVoSender>(spec_.config,
                                               spec_.sequence->rig);
  receiver_ = std::make_unique<core::LiVoReceiver>(
      spec_.config, spec_.options.receiver, spec_.sequence->rig);

  frames_ = static_cast<int>(spec_.sequence->frames.size());
  interval_ms_ = 1000.0 / spec_.config.fps;
  duration_ms_ = frames_ * interval_ms_;
  // Run past the nominal end so in-flight frames drain.
  horizon_ms_ = duration_ms_ + 600.0;
  uplink_delay_ms_ = spec_.options.channel.link.propagation_delay_ms;

  records_.assign(static_cast<std::size_t>(frames_), core::FrameRecord{});
  for (int f = 0; f < frames_; ++f) {
    records_[static_cast<std::size_t>(f)].frame_index =
        static_cast<std::uint32_t>(f);
    records_[static_cast<std::size_t>(f)].capture_time_ms = f * interval_ms_;
  }
  pssim_config_.max_anchors = spec_.options.pssim_anchors;

  channel_->SetFrameSink(
      [this](std::vector<net::ReceivedFrame> frames, double now_ms) {
        OnFramesReleased(std::move(frames), now_ms);
      });
}

void SessionActor::Start() {
  loop_.ScheduleAt(0.0, [this](double now_ms) { OnWake(now_ms); });
}

void SessionActor::OnWake(double now_ms) {
  SessionMetrics& session_metrics = Metrics();

  // Receiver pose feedback reaches the sender after the uplink delay.
  // Batched over skipped ticks: nothing reads predictor state between
  // wakes, so feeding poses late (in order) is observationally identical.
  while (pose_feed_index_ < spec_.user_trace.poses.size() &&
         spec_.user_trace.poses[pose_feed_index_].time_ms + uplink_delay_ms_ <=
             now_ms) {
    sender_->ObservePoseFeedback(spec_.user_trace.poses[pose_feed_index_]);
    ++pose_feed_index_;
  }

  // The reference loop feeds the RTT EWMA once per millisecond. The value
  // only changes inside feedback emission — an event, hence a wake — so it
  // is constant across the skipped ticks: replay the exact count.
  const auto elapsed_ticks =
      static_cast<long>(std::llround(now_ms - last_tick_ms_));
  for (long t = 0; t < elapsed_ticks; ++t) {
    sender_->ObserveRtt(channel_->SmoothedRttMs());
  }

  // PLI/FIR from the transport.
  if (channel_->TakeKeyframeRequest(core::kColorStream)) {
    sender_->RequestKeyframe(core::kColorStream);
  }
  if (channel_->TakeKeyframeRequest(core::kDepthStream)) {
    sender_->RequestKeyframe(core::kDepthStream);
  }

  // Capture + encode + send at the frame cadence, offset by the sender
  // pipeline delay (§A.1 pipelining).
  while (next_capture_ < frames_ &&
         next_capture_ * interval_ms_ +
                 spec_.options.sender_pipeline_delay_ms <=
             now_ms) {
    const int f = next_capture_++;
    // Sender-side congestion drop (WebRTC pacer behaviour): when the
    // link's send queue already holds more than a jitter-buffer's worth
    // of delay, pushing another frame guarantees it misses its playout
    // deadline AND deepens the queue. Skip the frame instead -- the
    // receiver records a stall and the queue drains.
    if (channel_->link().CurrentQueueDelayMs(now_ms) >
        spec_.options.channel.jitter_buffer_ms) {
      session_metrics.congestion_skips.Add();
      obs::TraceInstant("session.congestion_skip");
      continue;
    }
    core::SenderOutput out = sender_->ProcessFrame(
        spec_.sequence->frames[static_cast<std::size_t>(f)],
        static_cast<std::uint32_t>(f), channel_->TargetBitrateBps());
    {
      LIVO_SPAN("session.transmit");
      channel_->SendFrame(core::kColorStream, static_cast<std::uint32_t>(f),
                          out.color_keyframe, out.color_frame, now_ms);
      channel_->SendFrame(core::kDepthStream, static_cast<std::uint32_t>(f),
                          out.depth_keyframe, out.depth_frame, now_ms);
    }
    session_metrics.frames_sent.Add();
    core::FrameRecord& rec = records_[static_cast<std::size_t>(f)];
    rec.sender = out.stats;
  }

  // A shared bottleneck is pumped cooperatively: the first actor awake at
  // this timestamp routes every due packet to its flow.
  if (bottleneck_ != nullptr) bottleneck_->PumpUpTo(now_ms);
  channel_->Step(now_ms);  // timers + owned-link arrivals + frame sink

  last_tick_ms_ = now_ms;
  ScheduleNext(now_ms);
}

void SessionActor::OnFramesReleased(std::vector<net::ReceivedFrame> frames,
                                    double now_ms) {
  SessionMetrics& session_metrics = Metrics();
  const geom::Pose live_pose = sim::SampleTrace(spec_.user_trace, now_ms);
  const geom::Frustum live_frustum(live_pose, spec_.config.predictor.viewer);
  // PSSIM is the only reader of a cloud, so the receiver builds one only on
  // the metric cadence.
  const auto metric_every =
      static_cast<std::uint32_t>(std::max(1, spec_.options.metric_every));
  const auto rendered_frames =
      receiver_->OnFrames(frames, now_ms, live_frustum, metric_every);
  for (const core::RenderedFrame& rf : rendered_frames) {
    if (rf.frame_index >= records_.size()) continue;
    core::FrameRecord& rec = records_[rf.frame_index];
    rec.rendered = true;
    rec.render_time_ms = rf.render_time_ms;
    rec.latency_ms = rf.render_time_ms - rec.capture_time_ms + rf.decode_ms +
                     rf.reconstruct_ms + rf.render_ms;
    const double transport_ms = rf.render_time_ms - rec.capture_time_ms -
                                spec_.options.sender_pipeline_delay_ms;
    session_metrics.transport_ms.Observe(transport_ms);
    session_metrics.frames_rendered.Add();

    // Objective quality on the metric cadence.
    if (rf.frame_index % metric_every == 0) {
      display_ms_.Add(rf.reconstruct_ms + rf.render_ms);
      // The spans sit here because livo_metrics does not link livo_obs.
      pointcloud::PointCloud reference;
      {
        LIVO_SPAN("session.ground_truth");
        reference = core::GroundTruthCloud(
            spec_.sequence->frames[rf.frame_index], spec_.sequence->rig,
            live_frustum, spec_.options.receiver);
      }
      LIVO_SPAN("metrics.pssim");
      const metrics::PointSsimResult pssim =
          metrics::PointSsim(reference, rf.cloud, pssim_config_);
      rec.pssim_geometry = pssim.geometry;
      rec.pssim_color = pssim.color;
    }
  }
}

void SessionActor::ScheduleNext(double now_ms) {
  double next = kNeverMs;
  if (pose_feed_index_ < spec_.user_trace.poses.size()) {
    next = std::min(
        next, std::ceil(spec_.user_trace.poses[pose_feed_index_].time_ms +
                        uplink_delay_ms_));
  }
  if (next_capture_ < frames_) {
    next = std::min(next,
                    std::ceil(next_capture_ * interval_ms_ +
                              spec_.options.sender_pipeline_delay_ms));
  }
  next = std::min(next, std::ceil(channel_->NextEventTimeMs()));
  if (bottleneck_ != nullptr) {
    next = std::min(next, std::ceil(bottleneck_->NextEventTimeMs()));
  }
  // Quantize to the reference loop's 1 ms grid and always advance. A wake
  // at which the condition turns out not to hold yet is a no-op tick —
  // harmless for equivalence, it just re-derives a later candidate.
  next = std::max(next, now_ms + 1.0);
  if (next <= horizon_ms_) {
    loop_.ScheduleAt(next, [this](double t) { OnWake(t); });
  } else {
    Finish();
  }
}

void SessionActor::Finish() {
  if (finished_) return;
  finished_ = true;
  result_.frames = std::move(records_);
  core::ChargeSkippedDisplayWork(result_.frames, spec_.options.metric_every,
                                 display_ms_.mean());
  core::Aggregate(result_, frames_, duration_ms_, spec_.options.metric_every);
  {
    int rendered = 0;
    for (const core::FrameRecord& rec : result_.frames) {
      if (!rec.rendered) continue;
      ++rendered;
      Metrics().latency_ms.Observe(rec.latency_ms);
    }
    Metrics().frames_stalled.Add(
        static_cast<std::uint64_t>(std::max(0, frames_ - rendered)));
  }
  obs::DumpSessionArtifacts(result_.scheme + "_" + result_.video);

  // Throughput and utilization at paper scale (the scale factor cancels in
  // utilization; reporting unscaled Mbps matches Table 1's units).
  const double sim_bits = channel_->stats().bytes_sent * 8.0;
  const double sim_mbps = sim_bits / (duration_ms_ / 1000.0) / 1e6;
  result_.mean_throughput_mbps =
      link_scale_ > 0.0 ? sim_mbps / link_scale_ : 0.0;
  result_.mean_capacity_mbps = capacity_mbps_;
  result_.utilization =
      result_.mean_capacity_mbps > 0.0
          ? result_.mean_throughput_mbps / result_.mean_capacity_mbps
          : 0.0;
  LIVO_LOG(Debug) << "session " << result_.scheme << "/" << result_.video
                  << " finished: fps " << result_.fps << ", stall "
                  << result_.stall_rate;
}

core::SessionResult SessionActor::TakeResult() { return std::move(result_); }

}  // namespace livo::runtime
