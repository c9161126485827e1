// Trace-replay session driver (§4.1 "Trace replay").
//
// Replays a captured RGB-D sequence through a LiVo sender, an emulated
// bandwidth-trace link with GCC-style estimation, and a LiVo receiver,
// while the receiver's viewpoint follows a recorded user trace. Produces
// the per-frame records and aggregates every evaluation figure consumes:
// PSSIM geometry/color (stalls scored 0), stall rate, fps, latency,
// throughput, and utilization.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/receiver.h"
#include "core/sender.h"
#include "core/types.h"
#include "metrics/pointssim.h"
#include "net/transport.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"
#include "util/stats.h"

namespace livo::core {

// Nominal pipeline latency between capture and first packet on the wire
// (capture + view generation + tiling stages, each under one frame
// interval, §A.1), in every LiVo replay and conference.
inline constexpr double kSenderPipelineDelayMs = 33.0;

// Objective metrics run on every k-th frame (PSSIM is expensive; k follows
// the paper's probe cadence) with this anchor budget per sampled frame:
// ReplayOptions' defaults, and what the baselines always use.
inline constexpr int kMetricEvery = 3;
inline constexpr int kPssimAnchors = 1200;

struct ReplayOptions {
  net::ChannelConfig channel;
  // Paper-scale -> simulator-scale bandwidth mapping (ScaleProfile).
  double bandwidth_scale = 1.0 / 48.0;
  // Trace timeline compression: replay sessions are seconds long while the
  // paper replays minutes, so the trace clock runs faster to expose the
  // same bandwidth dynamics (see BandwidthTrace::TimeCompressed). Every
  // replay, conference and baseline runs at this acceleration.
  static constexpr double trace_time_accel = 6.0;
  // Starting offset into the bandwidth trace (different sessions replay
  // different segments, like the paper's long replays do naturally).
  double trace_offset_ms = 0.0;
  int metric_every = kMetricEvery;
  int pssim_anchors = kPssimAnchors;
  std::string scheme_name = "LiVo";
};

// Runs one (video, user trace, net trace) session with the given LiVo
// configuration (which encodes the LiVo / NoCull / NoAdapt / static-split
// variants via its switches). Wires one runtime::SessionActor onto a
// runtime::EventLoop (see src/runtime/) and runs the loop to completion.
SessionResult RunLiVoSession(const sim::CapturedSequence& sequence,
                             const sim::UserTrace& user_trace,
                             const sim::BandwidthTrace& net_trace,
                             const LiVoConfig& config,
                             const ReplayOptions& options);

// The pre-refactor 1 ms tick-polling driver, retained verbatim as the
// executable specification of session semantics. tests/test_runtime.cc
// asserts RunLiVoSession reproduces its per-frame records and aggregates
// exactly on the five dataset sequences; delete it (and the equivalence
// test) only when the event-driven runtime is allowed to diverge.
SessionResult RunLiVoSessionTickReference(const sim::CapturedSequence& sequence,
                                          const sim::UserTrace& user_trace,
                                          const sim::BandwidthTrace& net_trace,
                                          const LiVoConfig& config,
                                          const ReplayOptions& options);

// Replay sessions run this long past their nominal end, so frames still
// in flight drain.
inline constexpr double kDrainMs = 600.0;

// Ground-truth cloud for metric comparison: reconstruct from pristine
// views, voxelize with the receiver's voxel size, cull to `frustum`.
pointcloud::PointCloud GroundTruthCloud(
    const std::vector<image::RgbdFrame>& views,
    const std::vector<geom::RgbdCamera>& cameras, const geom::Frustum& frustum,
    const ReceiverConfig& receiver_config);

// PSSIM against the ground truth (§4.3), the one scorer of every scheme.
// It records the session.ground_truth and metrics.pssim spans itself,
// because livo_metrics does not link livo_obs. The sequence is borrowed.
class PssimScorer {
 public:
  PssimScorer(const sim::CapturedSequence& sequence, int anchors);

  // GroundTruthCloud of captured frame `capture_frame`.
  pointcloud::PointCloud Reference(std::size_t capture_frame,
                                   const geom::Frustum& frustum) const;
  // Scores `cloud` against `reference` into rec.pssim_geometry/color.
  void Score(const pointcloud::PointCloud& reference,
             const pointcloud::PointCloud& cloud, FrameRecord& rec) const;

 private:
  const sim::CapturedSequence& sequence_;
  metrics::PointSsimConfig config_;
};

// A result that names its session; the session fills in the rest.
SessionResult ResultHeader(std::string scheme,
                           const sim::CapturedSequence& sequence,
                           const sim::UserTrace& user_trace,
                           std::string net_trace, double target_fps);

// Sets throughput and utilization at paper scale from the bytes a session
// sent in `duration_ms` over a link replaying a trace of mean
// `capacity_mbps` at `bandwidth_scale` (the scale factor cancels in
// utilization; unscaled Mbps match Table 1's units).
void SetThroughput(SessionResult& result, std::size_t bytes_sent,
                   double duration_ms, double bandwidth_scale,
                   double capacity_mbps);

// What both LiVo replay loops, RunLiVoSession's runtime::SessionActor
// and the tick reference, keep around their own schedulers: the per-frame
// records and session counters, the handling of each batch the jitter
// buffer releases, and the close. The sequence and user trace are
// borrowed.
class SessionRecorder {
 public:
  SessionRecorder(const sim::CapturedSequence& sequence,
                  const sim::UserTrace& user_trace, const LiVoConfig& config,
                  const ReplayOptions& options, std::string net_trace);

  int frames() const { return frames_; }
  double interval_ms() const { return interval_ms_; }
  // The last virtual millisecond a session runs.
  double horizon_ms() const { return duration_ms_ + kDrainMs; }

  // A capture the sender-side congestion valve skipped.
  void RecordSkip();
  // Capture `f` went on the wire; `stats` are the sender's.
  void RecordSent(int f, const SenderFrameStats& stats);

  // A batch the jitter buffer released at `now_ms`. `receiver` renders it
  // against the viewer's live frustum, building clouds only on the metric
  // cadence, since PSSIM is their only reader. Each rendered frame's
  // record takes its render time and latency, session.transport_ms
  // observes its transport delay, and frames on the cadence are scored.
  void OnReleased(LiVoReceiver& receiver,
                  const std::vector<net::ReceivedFrame>& frames,
                  double now_ms);

  // Charges display work to rendered frames without a cloud, aggregates,
  // records the session's registry observations, dumps trace artifacts
  // and sets throughput from the `bytes_sent` of a link replaying a trace
  // of mean `capacity_mbps` at `bandwidth_scale`. Call once.
  SessionResult Close(std::size_t bytes_sent, double capacity_mbps,
                      double bandwidth_scale);

 private:
  const sim::UserTrace& user_trace_;
  geom::FrustumParams viewer_;
  int metric_every_;
  int frames_;
  double interval_ms_;
  double duration_ms_;
  PssimScorer scorer_;
  SessionResult result_;
  std::vector<FrameRecord> records_;
  // Reconstruct + render time of each cloud the receiver built; its mean
  // is charged to the rendered frames that skipped theirs.
  util::RunningStats display_ms_;
};

// Adds `display_ms`, a session's mean reconstruct + render time per cloud
// its receiver built, to the latency of each rendered frame off the
// `metric_every` cadence: the receiver builds no cloud for those frames,
// and latency_ms counts display work on every rendered frame.
void ChargeSkippedDisplayWork(std::vector<FrameRecord>& frames,
                              int metric_every, double display_ms);

// Fills the aggregate fields of `result` from its per-frame records.
// `expected_frames` is the number of frames the scheme intended to show.
void Aggregate(SessionResult& result, int expected_frames, double duration_ms,
               int metric_every);

}  // namespace livo::core
