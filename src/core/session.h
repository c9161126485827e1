// Trace-replay session driver (§4.1 "Trace replay").
//
// Replays a captured RGB-D sequence through a LiVo sender, an emulated
// bandwidth-trace link with GCC-style estimation, and a LiVo receiver,
// while the receiver's viewpoint follows a recorded user trace. Produces
// the per-frame records and aggregates every evaluation figure consumes:
// PSSIM geometry/color (stalls scored 0), stall rate, fps, latency,
// throughput, and utilization.
#pragma once

#include <string>

#include "core/receiver.h"
#include "core/sender.h"
#include "core/types.h"
#include "net/transport.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::core {

struct ReplayOptions {
  net::ChannelConfig channel;
  ReceiverConfig receiver;
  // Paper-scale -> simulator-scale bandwidth mapping (ScaleProfile).
  double bandwidth_scale = 1.0 / 48.0;
  // Trace timeline compression: replay sessions are seconds long while the
  // paper replays minutes, so the trace clock runs faster to expose the
  // same bandwidth dynamics (see BandwidthTrace::TimeCompressed).
  double trace_time_accel = 6.0;
  // Starting offset into the bandwidth trace (different sessions replay
  // different segments, like the paper's long replays do naturally).
  double trace_offset_ms = 0.0;
  // Nominal pipeline latency between capture and first packet on the wire
  // (capture + view generation + tiling stages, each under one frame
  // interval, §A.1).
  double sender_pipeline_delay_ms = 33.0;
  // Compute objective metrics every k-th frame (PSSIM is expensive; k
  // follows the paper's probe cadence).
  int metric_every = 3;
  // PSSIM anchor budget per sampled frame.
  int pssim_anchors = 1200;
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

// Ground-truth cloud for metric comparison: reconstruct from pristine
// views, voxelize with the receiver's voxel size, cull to `frustum`.
pointcloud::PointCloud GroundTruthCloud(
    const std::vector<image::RgbdFrame>& views,
    const std::vector<geom::RgbdCamera>& cameras, const geom::Frustum& frustum,
    const ReceiverConfig& receiver_config);

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
