// MeshReduce baseline (§4.1).
//
// "MeshReduce is a mesh-based full-scene live volumetric video streaming
// system... It compresses mesh geometry using Draco and mesh texture using
// H.264 [and transmits] over 2 TCP socket connections. MeshReduce employs
// indirect bandwidth adaptation: using a profile obtained from an offline
// analysis, it determines the best compression parameters for a given
// level of available bandwidth... based on the average bandwidth
// availability in a trace."
//
// Behaviours reproduced: (a) indirect, conservative adaptation -- the
// offline profile must leave headroom because it cannot react within a
// session, so it encodes well below the target (Table 1); (b) reliable
// transport means no stalls, but frame rate collapses under full-scene
// mesh reconstruction+encode cost (Figs 11, 13, 14: ~12 fps, target 15).
#pragma once

#include "core/session.h"
#include "core/types.h"
#include "mesh/mesh.h"

namespace livo::core {

// Replays `net_trace` at `bandwidth_scale` (paper-scale -> simulator
// scale, as ReplayOptions::bandwidth_scale).
SessionResult RunMeshReduce(const sim::CapturedSequence& sequence,
                            const sim::UserTrace& user_trace,
                            const sim::BandwidthTrace& net_trace,
                            double bandwidth_scale);

}  // namespace livo::core
