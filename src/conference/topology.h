// Conference wiring types (livo::conference).
//
// LiVo's evaluation is point-to-point: one capture rig streams to one
// viewer. A conference generalizes that to N participants, each both a
// sender (their own rig) and a receiver (everyone else's streams), joined
// through a selective forwarding unit (SFU) rather than an N^2 mesh: every
// participant sends its tiled depth/color streams once, uplink, and the
// SFU forwards them to the other N-1 downlinks, re-deciding per subscriber
// what that downlink can afford (allocator.h) and what its viewer can see
// (seat geometry below + the sender-side culling machinery of core/).
//
// This header holds the pure-data wiring: link topology, seat geometry,
// per-participant specs, and the ConferenceOptions knob block shared by
// RunConference, the tests, and bench_conference.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "fec/fec.h"
#include "geom/frustum.h"
#include "geom/vec.h"
#include "net/link.h"
#include "net/transport.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::conference {

// How one direction (all uplinks, or all downlinks) reaches the SFU.
enum class LinkMode {
  kPrivate,  // every participant has its own emulated access link
  kShared,   // all flows contend on one bottleneck (runtime::SharedLink)
};

// Where each remote participant's volumetric content sits in a
// subscriber's rendering space, and how coarsely visibility is sampled.
//
// Remotes are seated on a circle of radius kSeatRadiusM; with a single
// remote (a 2-party call) the seat collapses to the origin, so the
// geometry degenerates to the point-to-point session the rest of the repo
// evaluates. Each seat's content is approximated by the capture volume
// AABB: visibility of a seat is the fraction of a 4^3 lattice over that
// box inside the subscriber's (guard-band-expanded, Kalman-predicted)
// frustum.
inline constexpr double kSeatRadiusM = 2.0;

// World-space offset of remote `slot` out of `remote_count` seats.
geom::Vec3 SeatPosition(int slot, int remote_count);

// Fraction of the seat's content lattice inside `frustum` (in [0, 1]).
double VisibleFraction(const geom::Frustum& frustum,
                       const geom::Vec3& seat_offset);

// One conference participant: a capture sequence it sends, a viewpoint
// trajectory it watches with, and its private access-link traces (ignored
// for a direction running in LinkMode::kShared). The sequence is borrowed
// and must outlive the run.
struct ParticipantSpec {
  const sim::CapturedSequence* sequence = nullptr;
  sim::UserTrace user_trace;
  sim::BandwidthTrace uplink_trace;
  sim::BandwidthTrace downlink_trace;
  double uplink_trace_offset_ms = 0.0;
  double downlink_trace_offset_ms = 0.0;
  core::LiVoConfig config;
};

struct ConferenceOptions {
  // Access-link channel configs. The uplink default trims the jitter
  // buffer to an SFU ingest buffer: the SFU re-times frames onto each
  // downlink anyway, so a full playout buffer before it would only add
  // latency; 60 ms still leaves the NACK machinery room to repair.
  net::ChannelConfig uplink_channel;
  net::ChannelConfig downlink_channel;

  LinkMode uplink_mode = LinkMode::kPrivate;
  LinkMode downlink_mode = LinkMode::kPrivate;
  // Bottleneck traces/configs for directions running kShared.
  sim::BandwidthTrace shared_uplink_trace;
  sim::BandwidthTrace shared_downlink_trace;
  net::LinkConfig shared_uplink_config;
  net::LinkConfig shared_downlink_config;

  // Same scale model as core::ReplayOptions (see DESIGN.md §1).
  double bandwidth_scale = 1.0 / 48.0;

  // Simulcast ladder, copied into every participant's
  // LiVoConfig::simulcast_layers. Each origin encodes ladder_layers
  // quality layers (core::kLadderQpStep apart) once per frame; the SFU
  // forwards exactly one layer per (subscriber, origin), the best its
  // token buckets afford, switching layers only at keyframe boundaries.
  // 1 disables the ladder. A 2-party conference always runs
  // single-layer regardless: with one subscriber the origin already paces
  // itself to that subscriber's allocation, so lower layers would be pure
  // uplink overhead (and the point-to-point equivalence tests rely on it).
  int ladder_layers = 3;

  // Visibility-weighted FEC + deadline-aware repair scheduling (src/fec,
  // DESIGN.md §12). When fec.enabled, RunConference turns on parity
  // protection for every uplink and downlink channel; origins carve the
  // parity share out of their GCC target, the SFU prices the surcharge
  // into the two-level token buckets, and per-stream redundancy follows
  // the subscriber's predicted visible fraction and depth/color weight.
  fec::FecPolicy fec;

  // ---- Cascaded edge SFUs (cascade.h, DESIGN.md §11) ----
  // regions > 1 splits the roster into that many contiguous blocks, each
  // served by its own edge SFU; edges exchange ladders through a root
  // relay over rate-limited pipes (one per edge, each direction). Requires
  // private link modes: a shared access bottleneck couples every
  // participant at event fidelity and cannot be split across regions.
  int regions = 1;
  // Capacity of each edge<->root pipe in *scaled* Mbps (the same model
  // units bandwidth_scale maps the access traces into).
  double relay_rate_mbps = 20.0;
  // One-way propagation of a relay hop; also the LoopGroup lookahead
  // window, so it lower-bounds every cross-region delay.
  double relay_hop_delay_ms = 30.0;

  // Event-loop shards the run spreads its regions over. Results are
  // bit-identical for any value; only wall time changes. A direct
  // (regions == 1) conference is one coupling domain and always runs on a
  // single loop regardless.
  int shards = 1;

  ConferenceOptions() { uplink_channel.jitter_buffer_ms = 60.0; }
};

// Ladder depth a conference of `parties` actually runs (see ladder_layers
// above for why 2-party conferences stay single-layer).
inline int EffectiveLadderLayers(const ConferenceOptions& options,
                                 int parties) {
  if (parties <= 2 || options.ladder_layers <= 1) return 1;
  return options.ladder_layers;
}

// Region of `participant` in a cascaded conference: `regions` contiguous
// blocks whose sizes differ by at most one.
inline int RegionOf(int participant, int parties, int regions) {
  if (regions <= 1) return 0;
  return static_cast<int>(
      (static_cast<long long>(participant) * regions) / parties);
}

// Roster addressing. Subscriber s orders its remotes by ascending
// participant index, skipping itself: `origin`'s slot is origin for
// origin < s and origin - 1 above it.
inline int SlotOf(int subscriber, int origin) {
  return origin < subscriber ? origin : origin - 1;
}
inline int OriginOfSlot(int subscriber, int slot) {
  return slot < subscriber ? slot : slot + 1;
}

// Downlink stream id of remote `slot`'s ladder layer q: 2*(slot*layers+q)
// for color, +1 for depth. With one layer this is the classic
// 2*slot / 2*slot+1 pair.
inline std::uint32_t DownlinkStream(int layers, int slot, int q, bool depth) {
  return 2u * static_cast<std::uint32_t>(slot * layers + q) +
         (depth ? 1u : 0u);
}
// Remote slot a downlink stream id belongs to (inverse of DownlinkStream).
inline int SlotOfDownlinkStream(int layers, std::uint32_t stream_id) {
  return static_cast<int>(stream_id /
                          (2u * static_cast<std::uint32_t>(layers)));
}

}  // namespace livo::conference
