#include "runtime/session_actor.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace livo::runtime {

SessionActor::SessionActor(EventLoop& loop, SessionSpec spec,
                           const ReplayLink* bottleneck)
    : loop_(loop),
      spec_(std::move(spec)),
      link_(bottleneck != nullptr
                ? *bottleneck
                : ReplayLink{.trace = &spec_.net_trace,
                             .bandwidth_scale = spec_.options.bandwidth_scale,
                             .accel = core::ReplayOptions::trace_time_accel,
                             .offset_ms = spec_.options.trace_offset_ms}),
      recorder_(*spec_.sequence, spec_.user_trace, spec_.config,
                spec_.options,
                bottleneck != nullptr ? "shared" : spec_.net_trace.name),
      channel_(link_.MakeChannel(spec_.options.channel)),
      sender_(spec_.config, spec_.sequence->rig),
      receiver_(spec_.config, core::ReceiverConfig{}, spec_.sequence->rig) {
  channel_->SetFrameSink(
      [this](std::vector<net::ReceivedFrame> frames, double now_ms) {
        recorder_.OnReleased(receiver_, frames, now_ms);
      });
  // PLI/FIR from the transport, raised inside Step: the sender re-keys at
  // its next encode.
  channel_->SetKeyframeRequestSink([this](std::uint32_t stream_id, double) {
    sender_.RequestKeyframe(stream_id);
  });
}

void SessionActor::Start() {
  loop_.ScheduleAt(0.0, [this](double now_ms) { OnWake(now_ms); });
}

void SessionActor::OnWake(double now_ms) {
  const double uplink_delay_ms =
      spec_.options.channel.link.propagation_delay_ms;
  // Receiver pose feedback reaches the sender after the uplink delay.
  // Batched over skipped ticks: nothing reads predictor state between
  // wakes, so feeding poses late (in order) is observationally identical.
  while (pose_feed_index_ < spec_.user_trace.poses.size() &&
         spec_.user_trace.poses[pose_feed_index_].time_ms + uplink_delay_ms <=
             now_ms) {
    sender_.ObservePoseFeedback(spec_.user_trace.poses[pose_feed_index_]);
    ++pose_feed_index_;
  }

  // The reference loop feeds the RTT EWMA once per millisecond. The value
  // only changes inside feedback emission — an event, hence a wake — so it
  // is constant across the skipped ticks: replay the exact count.
  const auto elapsed_ticks =
      static_cast<long>(std::llround(now_ms - last_tick_ms_));
  for (long t = 0; t < elapsed_ticks; ++t) {
    sender_.ObserveRtt(channel_->SmoothedRttMs());
  }

  // Capture + encode + send at the frame cadence, offset by the sender
  // pipeline delay (§A.1 pipelining).
  while (next_capture_ < recorder_.frames() &&
         next_capture_ * recorder_.interval_ms() +
                 core::kSenderPipelineDelayMs <=
             now_ms) {
    const int f = next_capture_++;
    // Sender-side congestion drop (WebRTC pacer behaviour): when the
    // link's send queue already holds more than a jitter-buffer's worth
    // of delay, pushing another frame guarantees it misses its playout
    // deadline AND deepens the queue. Skip the frame instead -- the
    // receiver records a stall and the queue drains.
    if (channel_->link().CurrentQueueDelayMs(now_ms) >
        spec_.options.channel.jitter_buffer_ms) {
      recorder_.RecordSkip();
      continue;
    }
    core::SenderOutput out = sender_.ProcessFrame(
        spec_.sequence->frames[static_cast<std::size_t>(f)],
        static_cast<std::uint32_t>(f), channel_->TargetBitrateBps());
    {
      LIVO_SPAN("session.transmit");
      channel_->SendFrame(core::kColorStream, static_cast<std::uint32_t>(f),
                          out.color_keyframe, out.color_frame, now_ms);
      channel_->SendFrame(core::kDepthStream, static_cast<std::uint32_t>(f),
                          out.depth_keyframe, out.depth_frame, now_ms);
    }
    recorder_.RecordSent(f, out.stats);
  }

  // A shared bottleneck is pumped cooperatively: the first actor awake at
  // this timestamp routes every due packet to its flow.
  if (link_.shared != nullptr) link_.shared->PumpUpTo(now_ms);
  channel_->Step(now_ms);  // timers + owned-link arrivals + frame sink

  last_tick_ms_ = now_ms;
  ScheduleNext(now_ms);
}

void SessionActor::ScheduleNext(double now_ms) {
  double next = kNeverMs;
  if (pose_feed_index_ < spec_.user_trace.poses.size()) {
    next = std::min(
        next, std::ceil(spec_.user_trace.poses[pose_feed_index_].time_ms +
                        spec_.options.channel.link.propagation_delay_ms));
  }
  if (next_capture_ < recorder_.frames()) {
    next = std::min(next,
                    std::ceil(next_capture_ * recorder_.interval_ms() +
                              core::kSenderPipelineDelayMs));
  }
  next = std::min(next, std::ceil(channel_->NextEventTimeMs()));
  if (link_.shared != nullptr) {
    next = std::min(next, std::ceil(link_.shared->NextEventTimeMs()));
  }
  // Quantize to the reference loop's 1 ms grid and always advance. A wake
  // at which the condition turns out not to hold yet is a no-op tick —
  // harmless for equivalence, it just re-derives a later candidate.
  next = std::max(next, now_ms + 1.0);
  if (next <= recorder_.horizon_ms()) {
    loop_.ScheduleAt(next, [this](double t) { OnWake(t); });
  } else {
    Finish();
  }
}

void SessionActor::Finish() {
  if (finished_) return;
  finished_ = true;
  result_ = recorder_.Close(channel_->stats().bytes_sent,
                            link_.trace->MeanMbps(), link_.bandwidth_scale);
}

core::SessionResult SessionActor::TakeResult() { return std::move(result_); }

}  // namespace livo::runtime
