// Draco-Oracle baseline (§4.1).
//
// "Given a target bandwidth and a perfect estimate of a receiver's frustum
// (perfect culling), it picks the highest quality compression for the
// point cloud that fits within the target bandwidth... we compute offline
// a table [mapping] each Draco compression level and quantization
// parameter [to] the time to compress the perfectly-culled frame, and the
// compressed size... During playback, we use this map to find the best
// quantization parameter and compression level that fits the bandwidth
// estimate, and whose compression time is smaller than the inter-frame
// interval. If no such entry exists, we record a stall. At 30 fps,
// Draco-Oracle exhibits over 90% stalls..., so our evaluations use a lower
// frame rate, 15 fps."
#pragma once

#include "core/session.h"
#include "core/types.h"
#include "pccodec/octree_codec.h"

namespace livo::core {

// Runs the Draco-Oracle over a captured sequence, reading `net_trace` at
// `bandwidth_scale` (paper-scale -> simulator scale, as
// ReplayOptions::bandwidth_scale). The oracle knows the true link capacity
// (no estimator) and the true receiver frustum (perfect culling) -- both
// favours granted to the baseline, as in the paper.
SessionResult RunDracoOracle(const sim::CapturedSequence& sequence,
                             const sim::UserTrace& user_trace,
                             const sim::BandwidthTrace& net_trace,
                             double bandwidth_scale);

}  // namespace livo::core
