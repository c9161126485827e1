// One sender→link→receiver session as an actor on the event loop
// (livo::runtime).
//
// SessionActor owns the endpoints (LiVoSender, LiVoReceiver), the
// VideoChannel, and the per-session records; the EventLoop drives it
// entirely through scheduled wakes. At each wake the actor executes the
// same body the old 1 ms tick loop ran every millisecond — pose feedback,
// RTT observation, PLI consumption, capture/encode/send, channel timers,
// jitter-buffer release — then asks every component for its next possible
// event time (capture timer, pose feed, VideoChannel::NextEventTimeMs,
// SharedLink::NextEventTimeMs) and schedules exactly one wake at the
// earliest of them, quantized to the 1 ms grid.
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
#include <vector>

#include "core/receiver.h"
#include "core/sender.h"
#include "core/session.h"
#include "core/types.h"
#include "metrics/pointssim.h"
#include "net/transport.h"
#include "runtime/event_loop.h"
#include "runtime/shared_link.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"
#include "util/stats.h"

namespace livo::runtime {

// Everything one session needs; the sequence is borrowed (captures are
// large) and must outlive the actor.
struct SessionSpec {
  const sim::CapturedSequence* sequence = nullptr;
  sim::UserTrace user_trace;
  sim::BandwidthTrace net_trace;  // private-link trace; unused on a SharedLink
  core::LiVoConfig config;
  core::ReplayOptions options;
  // Fraction of the bottleneck mean the GCC estimator warm-starts at.
  // RunMultiSession sets 1/N on a shared link so flows start near their
  // fair share instead of all claiming 80% of the bottleneck.
  double gcc_initial_share = 1.0;
};

class SessionActor {
 public:
  // Session over a private link replaying spec.net_trace.
  SessionActor(EventLoop& loop, SessionSpec spec);

  // Session contending on a shared bottleneck. `bottleneck_trace` is the
  // trace the SharedLink replays (used for estimator warm-start and the
  // capacity/utilization denominators); `bottleneck_scale` its
  // LinkConfig::bandwidth_scale.
  SessionActor(EventLoop& loop, SessionSpec spec, SharedLink& bottleneck,
               const sim::BandwidthTrace& bottleneck_trace,
               double bottleneck_scale);

  SessionActor(const SessionActor&) = delete;
  SessionActor& operator=(const SessionActor&) = delete;

  // Schedules the first wake (t = 0). Call before EventLoop::Run().
  void Start();

  bool finished() const { return finished_; }

  // Valid after the loop drained (finished() == true).
  core::SessionResult TakeResult();

 private:
  void Init();
  void OnWake(double now_ms);
  void OnFramesReleased(std::vector<net::ReceivedFrame> frames,
                        double now_ms);
  void ScheduleNext(double now_ms);
  void Finish();

  EventLoop& loop_;
  SessionSpec spec_;
  SharedLink* bottleneck_ = nullptr;

  std::unique_ptr<net::VideoChannel> channel_;
  std::unique_ptr<core::LiVoSender> sender_;
  std::unique_ptr<core::LiVoReceiver> receiver_;

  core::SessionResult result_;
  std::vector<core::FrameRecord> records_;
  metrics::PointSsimConfig pssim_config_;
  // Reconstruct + render time of each cloud the receiver built; its mean is
  // charged to the rendered frames that skipped theirs.
  util::RunningStats display_ms_;

  int frames_ = 0;
  double interval_ms_ = 0.0;
  double duration_ms_ = 0.0;
  double horizon_ms_ = 0.0;
  double uplink_delay_ms_ = 0.0;
  double capacity_mbps_ = 0.0;   // utilization denominator (paper scale)
  double link_scale_ = 1.0;      // bandwidth scale of the replayed link

  int next_capture_ = 0;
  std::size_t pose_feed_index_ = 0;
  double last_tick_ms_ = -1.0;  // so the t=0 wake replays exactly one tick
  bool finished_ = false;
};

}  // namespace livo::runtime
