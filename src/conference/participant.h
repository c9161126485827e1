// One conference participant as an actor on the event loop
// (livo::conference).
//
// A participant is a full LiVo endpoint in both directions: a LiVoSender
// capturing its own rig onto its uplink, and one LiVoReceiver per remote
// participant decoding the streams the SFU forwards down its downlink.
// The actor mirrors runtime::SessionActor's sender half (capture cadence
// offset by the pipeline delay, congestion skip against the uplink queue,
// RTT replay on the 1 ms grid) but delegates all network stepping to the
// SfuActor, which is the conference's single pump: a participant's wakes
// are capture times only, and each wake brackets its send with
// SfuActor::OnNetworkActivity calls so deliveries and pose feeds happen
// at event fidelity.
//
// Downlink streams are (slot, layer)-addressed (topology.h SlotOf and
// DownlinkStream): the SFU sends remote `slot`'s ladder layer q on stream
// ids 2*(slot*L+q) (color) and +1 (depth); the participant remaps them
// back to the canonical kColorStream/kDepthStream pair before the
// per-(remote, layer) receiver. With L == 1 this is the classic 2*slot
// addressing. Each layer gets its own receiver because the SFU switches a
// stream's layer only at keyframes, so every layer's decoder sees
// contiguous runs that start at a keyframe.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "conference/topology.h"
#include "core/receiver.h"
#include "core/sender.h"
#include "core/types.h"
#include "net/transport.h"
#include "runtime/event_loop.h"

namespace livo::conference {

class SfuActor;

// Per-forwarded-frame record of one remote stream at one subscriber. All
// times are virtual (event-loop) milliseconds, so records are bitwise
// reproducible across reruns and thread counts.
struct StreamFrameRecord {
  std::uint32_t frame_index = 0;
  bool forwarded = false;  // the SFU sent the pair down this subscriber's link
  bool rendered = false;   // the subscriber decoded and marker-checked it
  bool marker_verified = false;  // its marker read back its frame number
  double capture_time_ms = 0.0;
  double forward_time_ms = 0.0;
  double render_time_ms = 0.0;
  double latency_ms = 0.0;  // render - capture (virtual time only)
  std::size_t bytes = 0;    // encoded pair payload (of the forwarded layer)
  int layer = -1;           // ladder layer forwarded (-1 = never forwarded)
};

// One remote participant's stream as seen by one subscriber.
struct RemoteStreamResult {
  int origin = 0;
  std::vector<StreamFrameRecord> frames;
  double fps = 0.0;
  double stall_rate = 0.0;
  // Mean latency over *delivered* frames only — a survivor-biased number
  // by construction (dropped frames contribute nothing, so a scheme that
  // drops every hard frame looks fast). Kept because it is the paper's
  // definition; read it next to stall_aware_latency_ms.
  double mean_latency_ms = 0.0;
  // Stall-aware mean latency over ALL expected frames: frame f's latency
  // is the wait from its capture until the first render of any frame with
  // index >= f — the viewer's age-of-information gap, which a dropped
  // frame extends rather than escapes. Frames never covered by a later
  // render are charged to the run horizon. Virtual-time-deterministic.
  double stall_aware_latency_ms = 0.0;
  std::size_t pairs_forwarded = 0;
  std::size_t pairs_rendered = 0;
  // Pair deliveries by ladder layer (size = effective conference layers).
  std::vector<std::size_t> forwarded_by_layer;
  std::size_t layer_switches = 0;  // forwarded-layer changes on this stream
  // Downlink loss-resilience counters for this (subscriber, origin)
  // stream, summed over its (layer, lane) channel streams.
  std::size_t keyframe_requests = 0;  // PLIs this subscriber raised
  std::size_t nacks = 0;              // repair rounds (NACK or scheduled)
  std::size_t fragments_recovered = 0;  // rebuilt from parity, no NACK
};

struct ParticipantResult {
  int index = 0;
  std::string video;
  std::string user_trace;
  std::size_t frames_sent = 0;
  std::size_t bytes_sent = 0;  // uplink wire bytes
  std::size_t congestion_skips = 0;
  double mean_split = 0.0;
  double mean_target_bps = 0.0;
  // Loss-resilience totals (src/fec). Uplink counters describe this
  // participant's own streams toward the SFU; downlink counters describe
  // the channel carrying every remote stream to this subscriber.
  std::size_t uplink_parity_bytes = 0;    // subset of bytes_sent
  std::size_t uplink_keyframe_requests = 0;
  std::size_t uplink_nacks = 0;
  std::size_t uplink_fragments_recovered = 0;
  std::size_t downlink_parity_bytes = 0;
  std::size_t downlink_bytes_sent = 0;    // all SFU->subscriber wire bytes
  std::size_t fragments_recovered = 0;    // downlink, = sum over streams
  std::size_t repairs_scheduled = 0;      // downlink deadline-admitted
  std::size_t repairs_abandoned = 0;      // downlink given up early
  std::size_t nacks_sent = 0;             // downlink repair rounds
  std::vector<RemoteStreamResult> streams;  // by slot
};

class ParticipantActor {
 public:
  // `specs` is the whole conference roster (borrowed): the receiver for
  // each remote slot needs that remote's rig and tile layout.
  ParticipantActor(runtime::EventLoop& loop, int index,
                   const std::vector<ParticipantSpec>& specs,
                   const ConferenceOptions& options,
                   std::unique_ptr<net::VideoChannel> uplink,
                   std::unique_ptr<net::VideoChannel> downlink,
                   double horizon_ms);

  ParticipantActor(const ParticipantActor&) = delete;
  ParticipantActor& operator=(const ParticipantActor&) = delete;

  void SetSfu(SfuActor* sfu) { sfu_ = sfu; }
  void Start();

  int index() const { return index_; }
  int frame_count() const { return frames_; }
  double duration_ms() const { return duration_ms_; }
  double capture_interval_ms() const { return interval_ms_; }
  const sim::UserTrace& user_trace() const { return spec_.user_trace; }
  net::VideoChannel& uplink() { return *uplink_; }
  net::VideoChannel& downlink() { return *downlink_; }

  // --- SFU-facing surface -------------------------------------------------
  // PLI relayed from a subscriber (or the SFU's own uplink receiver):
  // both streams re-key at the next capture.
  void RelayKeyframeRequest();
  // N==2 only: the remote subscriber's delayed pose feedback, feeding
  // sender-side frustum culling exactly as in a point-to-point session.
  void ObserveRemotePose(const geom::TimedPose& pose);
  // Bookkeeping callback when the SFU forwards origin slot `slot`'s pair
  // for `frame_index` down this participant's link at ladder layer `layer`.
  void NotePairForwarded(int slot, std::uint32_t frame_index, double now_ms,
                         std::size_t bytes, int layer);
  // Encode-probe metadata for an uplinked frame (nullptr if unknown) —
  // the SFU reads the RMSEs to drive its per-subscriber split controllers.
  const core::SenderFrameStats* StatsFor(std::uint32_t frame_index) const;
  // Frames released by this participant's downlink jitter buffer.
  void OnDownlinkFrames(std::vector<net::ReceivedFrame> frames,
                        double now_ms);

  // Valid once the loop drained.
  ParticipantResult TakeResult();

 private:
  void OnWake(double now_ms);
  void ScheduleNext(double now_ms);

  runtime::EventLoop& loop_;
  int index_ = 0;
  ParticipantSpec spec_;  // copy; sequence stays borrowed
  const ConferenceOptions& options_;
  SfuActor* sfu_ = nullptr;

  std::unique_ptr<net::VideoChannel> uplink_;
  std::unique_ptr<net::VideoChannel> downlink_;
  std::unique_ptr<core::LiVoSender> sender_;
  // One receiver per (slot, ladder layer), flat at [slot * layers_ + q];
  // the lowest layer's receiver decodes the halved canvas (divisor 2).
  std::vector<std::unique_ptr<core::LiVoReceiver>> receivers_;
  int layers_ = 1;  // EffectiveLadderLayers of this conference
  std::vector<int> last_layer_;  // by slot: last forwarded layer, -1 fresh

  ParticipantResult result_;
  std::vector<core::SenderFrameStats> sent_stats_;
  std::vector<bool> sent_;
  // Ledger-only bookkeeping (first downlink half per slot/frame); never
  // folded into Fingerprint() so the determinism contract is untouched.
  std::vector<std::vector<bool>> delivered_;

  int frames_ = 0;
  double interval_ms_ = 0.0;
  double duration_ms_ = 0.0;
  double horizon_ms_ = 0.0;
  int next_capture_ = 0;
  double last_tick_ms_ = -1.0;
  double split_sum_ = 0.0;
  double target_sum_ = 0.0;
};

}  // namespace livo::conference
