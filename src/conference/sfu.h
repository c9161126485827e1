// Selective forwarding unit (livo::conference).
//
// The SfuActor is the conference's hub and its single network pump: it
// owns no channels (participants do) but steps every uplink and downlink
// channel, pumps the shared bottlenecks, and re-schedules one event-loop
// wake at the earliest instant anything can change (channel events,
// shared-link deliveries, allocation boundaries, pose feedback arrivals),
// quantized to the runtime's 1 ms grid. Participants call
// OnNetworkActivity around their capture wakes so sends are picked up at
// event fidelity rather than at the SFU's next timer.
//
// Forwarding is pair-atomic and layer-aware: each origin uplinks a
// simulcast ladder (core/types.h) — every frame encoded once per layer,
// never per subscriber — and the SFU holds the ladder until the *top*
// layer's depth/color pair clears the uplink jitter buffer (lower layers
// are uplinked first, so they are normally already in). The ladder is then
// offered to each subscriber independently, and the pair verdict is
// four-way: forward at some layer q (the best the budget affords), or
// drop. A pair reaches a subscriber only if
//   1. the subscriber's downlink queue is not already congested past its
//      jitter buffer (otherwise forwarding guarantees a late frame AND a
//      deeper queue — drop and re-key instead);
//   2. the (subscriber, origin) stream is not awaiting a keyframe — after
//      any drop, P-frames are withheld until the next keyframe pair, so a
//      subscriber's decoder never sees a P-frame it cannot anchor;
//   3. the two-level allocator admits a ladder layer for that subscriber
//      and origin (DownlinkAllocator::Admit, allocator.h). Keyframe pairs
//      may pick any complete layer (priced top-down); P-pairs must
//      continue the stream's current layer — switching mid-GOP would hand
//      the subscriber's decoder a P-frame from a stream it never anchored
//      — and drop as layer_incomplete if that layer lost a half uplink.
// Every drop marks the stream awaiting-keyframe and relays a throttled
// PLI to the origin, mirroring the transport's own recovery protocol.
// Layer switches therefore happen only at keyframe boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "conference/allocator.h"
#include "conference/participant.h"
#include "conference/topology.h"
#include "core/frustum_predictor.h"
#include "net/transport.h"
#include "obs/ledger.h"
#include "runtime/event_loop.h"
#include "runtime/shared_link.h"

namespace livo::conference {

// Ledger hop for a transport FEC/repair lifecycle event; shared by the
// uplink (SFU-side) and downlink (participant-side) hook wiring.
inline obs::LedgerHop FecLedgerHop(net::VideoChannel::FecEvent event) {
  switch (event) {
    case net::VideoChannel::FecEvent::kParityIngested:
      return obs::LedgerHop::kParityIngested;
    case net::VideoChannel::FecEvent::kRecovered:
      return obs::LedgerHop::kRecoveredFec;
    case net::VideoChannel::FecEvent::kRepairScheduled:
      return obs::LedgerHop::kRepairScheduled;
    case net::VideoChannel::FecEvent::kRepairAbandoned:
      return obs::LedgerHop::kRepairAbandoned;
  }
  return obs::LedgerHop::kParityIngested;
}

struct SfuStats {
  std::size_t frames_in = 0;        // uplink frames (stream halves) received
  // Ladders ingested for forwarding: top pair arrived intact, or at least
  // one lower layer survived a stranded ladder (see pairs_salvaged).
  std::size_t pairs_completed = 0;
  std::size_t pairs_forwarded = 0;  // pair deliveries (per subscriber)
  std::size_t pairs_dropped_budget = 0;
  std::size_t pairs_dropped_congestion = 0;
  std::size_t pairs_dropped_awaiting_key = 0;
  // P-pair whose stream's current simulcast layer lost a half uplink.
  std::size_t pairs_dropped_layer_incomplete = 0;
  std::size_t pairs_evicted_incomplete = 0;  // no layer survived the uplink
  // Ladders whose top pair died on the uplink but were still forwarded
  // from the highest surviving lower layer (counted in pairs_completed).
  std::size_t pairs_salvaged = 0;
  std::size_t keyframe_relays = 0;           // PLIs forwarded to origins
  // Pair deliveries by chosen ladder layer (size = effective layers).
  std::vector<std::size_t> forwarded_by_layer;
  std::size_t layer_switches_up = 0;    // keyframe upgrades
  std::size_t layer_switches_down = 0;  // keyframe downgrades
};

// One simulcast layer's encoded depth/color pair. The payload shared_ptrs
// alias the origin's encoder output — immutable by contract, and
// shared_ptr control blocks are thread-safe, so copies are cheap and
// race-free across loop shards. A half that has not arrived (or died on
// the uplink, or was trimmed off a relay prefix) is null.
struct LadderPair {
  std::shared_ptr<const std::vector<std::uint8_t>> color;
  std::shared_ptr<const std::vector<std::uint8_t>> depth;
  bool color_keyframe = false;
  bool depth_keyframe = false;
  bool Complete() const { return color && depth; }
};

// Highest layer of `ladder` with both halves present, or -1 if none.
int TopCompleteLayer(const std::vector<LadderPair>& ladder);

// One simulcast ladder crossing the cascade (edge -> root -> edge).
// Everything the destination edge needs that would otherwise require
// touching the (remote) origin participant travels inline: the
// encode-probe RMSEs and the capture interval the sustained price is
// keyed to.
struct RelayLadder {
  int origin = 0;
  std::uint32_t frame_index = 0;
  bool key_pair = false;
  double capture_interval_ms = 0.0;
  bool has_stats = false;
  core::SenderFrameStats stats;
  // Indexed by ladder layer q; entries above the admitted relay prefix
  // (or layers that died on the origin uplink) are incomplete.
  std::vector<LadderPair> layers;
};

// What an edge SFU asks of the cascade (implemented by cascade.h's
// EdgeRelay). All calls happen on the edge's own loop thread.
class RelayPort {
 public:
  virtual ~RelayPort() = default;
  // A local ladder completed; the relay decides which prefix (if any) to
  // admit onto the edge->root pipe.
  virtual void OfferLadder(const RelayLadder& ladder, double now_ms) = 0;
  // A local subscriber needs a keyframe from a remote origin (PLI).
  virtual void RequestRemoteKeyframe(int origin, double now_ms) = 0;
  // Called once per allocation interval with this edge's demand for every
  // origin (max visibility over local subscribers; the inter-SFU
  // flow-control signal). Rolls the relay allocator's interval. `start_ms`
  // is the interval boundary, `now_ms` the event actually driving it
  // (catch-up intervals run late; sends must use `now_ms`).
  virtual void OnAllocationInterval(double start_ms,
                                    const std::vector<double>& demand,
                                    double now_ms) = 0;
  // Relay-pipe bandwidth currently granted to `origin`'s ladder, bits/s —
  // the cascade's contribution to OriginBudgetBps. Negative before the
  // relay's first allocation interval (treated as "no opinion yet").
  virtual double RelayBudgetBps(int origin) const = 0;
};

class SfuActor {
 public:
  SfuActor(runtime::EventLoop& loop, const std::vector<ParticipantSpec>& specs,
           const ConferenceOptions& options, double horizon_ms);

  SfuActor(const SfuActor&) = delete;
  SfuActor& operator=(const SfuActor&) = delete;

  // Registration, in participant-index order; the SFU installs itself as
  // the uplink frame sink. Borrowed pointers; participants outlive the SFU
  // inside RunConference. In a cascade, pass nullptr for every participant
  // whose region this edge does not serve — slot addressing stays
  // roster-global and remote entries are simply skipped.
  void AddParticipant(ParticipantActor* participant);
  void SetSharedLinks(runtime::SharedLink* uplink,
                      runtime::SharedLink* downlink);

  // Switches this SFU into edge mode for `region` of a cascade:
  // completed local ladders are offered to `relay` after the local
  // fan-out, PLIs for remote origins are routed through it, and
  // OriginBudgetBps gains the relay-pipe grant. `relay` must outlive the
  // actor. Call before Start().
  void ConfigureCascade(RelayPort* relay, int region);

  void Start();

  // The conference's network heartbeat; idempotent at a timestep.
  void OnNetworkActivity(double now_ms);

  // A remote origin's ladder prefix arrived over the cascade (delivered on
  // this edge's loop by the root's CrossLoopChannel): records the ingest,
  // then runs the normal per-subscriber gate fan-out for local
  // subscribers.
  void OnRelayLadder(const RelayLadder& ladder, double now_ms);
  // A PLI from a remote region reached this (origin-serving) edge.
  void OnRemoteKeyframeRequest(int origin, double now_ms);

  // Largest per-subscriber allocation currently granted to `origin`'s
  // stream, in bits/s — the origin encodes at most this fast (encoding
  // beyond every subscriber's share is guaranteed SFU drop work).
  // +infinity before the first allocation interval.
  double OriginBudgetBps(int origin) const;

  // Worst subscriber downlink RTT for `origin`'s streams (the other half
  // of the origin's end-to-end RTT replay).
  double MaxSubscriberDownlinkRttMs(int origin) const;

  const SfuStats& stats() const { return stats_; }
  // Effective ladder depth (options.ladder_layers, or 1 for 2 parties).
  int layers() const { return layers_; }
  std::vector<AllocationAuditRow> TakeAudits(double now_ms) {
    return allocator_.TakeAudits(now_ms);
  }

 private:
  void OnUplinkFrames(int origin, const std::vector<net::ReceivedFrame>& frames,
                      double now_ms);
  // Terminal accounting for a ladder stuck behind a newer completed pair:
  // forwards from the highest surviving layer (salvage) or records an
  // eviction when no layer kept both halves.
  void FinalizeStranded(int origin, std::uint32_t frame_index,
                        const std::vector<LadderPair>& ladder, double now_ms);
  void ForwardPair(int origin, std::uint32_t frame_index,
                   const std::vector<LadderPair>& ladder, double now_ms);
  // The allocator price sheet of one ladder, shared by both ingest paths
  // so a stream prices identically wherever its ladder enters.
  std::vector<LayerPairBytes> PriceLadder(
      int origin, bool key_pair, double capture_interval_ms,
      const std::vector<LadderPair>& ladder);
  // The per-subscriber gate loop shared by the local (ForwardPair) and
  // relayed (OnRelayLadder) ingest paths. `ref` is the highest layer with
  // both halves intact; `candidates` is the priced allocator sheet.
  void FanOutLadder(int origin, std::uint32_t frame_index,
                    const std::vector<LadderPair>& layers,
                    const std::vector<LayerPairBytes>& candidates, int ref,
                    bool key_pair, const core::SenderFrameStats* stats,
                    double now_ms);
  bool IsLocal(int participant) const {
    return participants_[static_cast<std::size_t>(participant)] != nullptr;
  }
  void RunAllocations(double now_ms);
  void FeedPoses(double now_ms);
  void RelayKeyframeRequests(double now_ms);
  void RequestOriginKeyframe(int origin, double now_ms);
  void ScheduleNext(double now_ms);

  runtime::EventLoop& loop_;
  const ConferenceOptions& options_;
  double horizon_ms_ = 0.0;
  int parties_ = 0;
  int layers_ = 1;

  std::vector<ParticipantActor*> participants_;
  runtime::SharedLink* shared_uplink_ = nullptr;
  runtime::SharedLink* shared_downlink_ = nullptr;

  DownlinkAllocator allocator_;
  LadderPricer pricer_;  // for both ingest paths (PriceLadder)
  // Per-subscriber Kalman pose predictors fed by delayed uplink pose
  // feedback; their guard-band frustums drive the level-1 shares.
  std::vector<core::FrustumPredictor> predictors_;
  // Last interval's level-1 visibility, [subscriber][slot]: the FEC
  // utility signal (protect what the viewer is predicted to look at).
  std::vector<std::vector<double>> visibility_;
  std::vector<std::size_t> pose_feed_idx_;         // into subscriber's trace
  std::vector<std::size_t> remote_pose_feed_idx_;  // N==2 sender culling feed
  std::vector<geom::Vec3> seat_offsets_;           // by slot (same for all)

  // Each origin's incomplete ladders by frame, indexed by layer q.
  std::vector<std::map<std::uint32_t, std::vector<LadderPair>>> pending_;
  std::vector<std::vector<bool>> awaiting_key_;  // [subscriber][slot]
  std::vector<double> last_key_relay_ms_;        // by origin

  // Cascade wiring (null for a direct conference).
  RelayPort* relay_ = nullptr;
  int region_ = 0;
  // Extra RTT a remote subscriber adds over the cascade (two relay hops
  // each way); folded into MaxSubscriberDownlinkRttMs when any subscriber
  // of `origin` is remote.
  double cascade_rtt_ms_ = 0.0;

  double next_alloc_ms_ = 0.0;
  double uplink_prop_ms_ = 0.0;
  double downlink_prop_ms_ = 0.0;
  runtime::EventLoop::EventId pending_wake_ =
      runtime::EventLoop::kInvalidEvent;
  double pending_wake_ms_ = -1.0;
  SfuStats stats_;
};

}  // namespace livo::conference
