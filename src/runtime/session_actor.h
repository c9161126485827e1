// One sender→link→receiver session as an actor on the event loop
// (livo::runtime).
//
// SessionActor owns the endpoints (LiVoSender, LiVoReceiver) and the
// VideoChannel; its records, the handling of released batches and the
// close live in a core::SessionRecorder, shared with the tick reference.
// The EventLoop drives it entirely through scheduled wakes. At each wake
// the actor executes the same body the old 1 ms tick loop ran every
// millisecond — pose feedback, RTT observation, capture/encode/send,
// channel timers (whose keyframe-request sink re-keys the sender before
// its next encode), jitter-buffer release — then asks
// every component for its next possible event time (capture timer, pose
// feed, VideoChannel::NextEventTimeMs, SharedLink::NextEventTimeMs) and
// schedules exactly one wake at the earliest of them, quantized to the
// 1 ms grid.
//
// Equivalence with the tick loop (asserted in tests/test_runtime.cc
// against RunLiVoSessionTickReference): the tick body is a no-op on any
// tick where no event candidate falls, except for one genuinely per-tick
// side effect — the sender observes the smoothed RTT once per
// millisecond. That value only changes inside the channel's feedback
// emission (an event), so it is constant across skipped ticks and the
// actor replays the exact observation count at the next wake. Everything
// else (captures, arrivals, NACK, deadlines, feedback, releases) is an
// event candidate, so skipped ticks change no state and the two drivers
// produce identical per-frame records.
#pragma once

#include <memory>

#include "core/receiver.h"
#include "core/sender.h"
#include "core/session.h"
#include "core/types.h"
#include "net/transport.h"
#include "runtime/event_loop.h"
#include "runtime/shared_link.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::runtime {

// Everything one session needs; the sequence is borrowed (captures are
// large) and must outlive the actor.
struct SessionSpec {
  const sim::CapturedSequence* sequence = nullptr;
  sim::UserTrace user_trace;
  sim::BandwidthTrace net_trace;  // private-link trace; unused on a SharedLink
  core::LiVoConfig config;
  core::ReplayOptions options;
};

class SessionActor {
 public:
  // With `bottleneck` null, the session owns a private link replaying
  // spec.net_trace as spec.options set out. Otherwise it is one flow of
  // bottleneck->shared, and bottleneck->trace (the trace the SharedLink
  // replays, for the warm start and the capacity/utilization
  // denominators) must outlive the actor.
  SessionActor(EventLoop& loop, SessionSpec spec,
               const ReplayLink* bottleneck = nullptr);

  SessionActor(const SessionActor&) = delete;
  SessionActor& operator=(const SessionActor&) = delete;

  // Schedules the first wake (t = 0). Call before EventLoop::Run().
  void Start();

  bool finished() const { return finished_; }

  // Valid after the loop drained (finished() == true).
  core::SessionResult TakeResult();

 private:
  void OnWake(double now_ms);
  void ScheduleNext(double now_ms);
  void Finish();

  EventLoop& loop_;
  SessionSpec spec_;
  ReplayLink link_;
  core::SessionRecorder recorder_;
  std::unique_ptr<net::VideoChannel> channel_;
  core::LiVoSender sender_;
  core::LiVoReceiver receiver_;
  core::SessionResult result_;

  int next_capture_ = 0;
  std::size_t pose_feed_index_ = 0;
  double last_tick_ms_ = -1.0;  // so the t=0 wake replays exactly one tick
  bool finished_ = false;
};

}  // namespace livo::runtime
