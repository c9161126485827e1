// Media transport over the emulated link.
//
// VideoChannel models one direction of a WebRTC-like session carrying
// multiple media streams (LiVo: stream 0 = color, stream 1 = depth) over a
// single bottleneck link:
//   * frames are packetized into MTU fragments and reassembled;
//   * a jitter buffer (default 100 ms, §4.4) delays playout to absorb
//     delay variation;
//   * intra-frame NACK recovers isolated losses when time allows;
//   * frames still incomplete at their playout deadline are dropped; without
//     FEC a throttled PLI/FIR-style keyframe request is pushed to the
//     owner's keyframe-request sink (§A.1);
//   * periodic receiver reports feed the GCC estimator whose output is the
//     bandwidth handed to LiVo's splitter (§3.3);
//   * with FEC enabled (src/fec, DESIGN.md §12), frames carry XOR
//     interleaved parity sized per stream via SetStreamRedundancy, missing
//     fragments are rebuilt from parity on arrival, and the blind NACK
//     timer is replaced by a deadline-aware repair scheduler: a
//     retransmission round is admitted only when it can land before the
//     frame's playout deadline given the smoothed RTT; otherwise the
//     frame's repair is abandoned immediately. A FEC channel raises no PLI
//     at all: a frame that misses its deadline is only counted lost.
//
// ReliableChannel models MeshReduce's TCP sockets: nothing is ever lost,
// but delivery waits for (re)transmission, so under-provisioned bandwidth
// shows up as late frames / lower frame rate instead of stalls (§4.3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/gcc.h"
#include "net/link.h"
#include "net/packet.h"
#include "util/clock.h"

namespace livo::obs {
class TimeSeries;
}  // namespace livo::obs

namespace livo::net {

// Keyframe requests toward one stream or origin are spaced at least this
// far apart (PLI throttling, as WebRTC does).
inline constexpr double kKeyframeRequestThrottleMs = 300.0;

// The one throttle rule. Per key (a stream id or an origin), a request
// passes if it is the key's first, or once kKeyframeRequestThrottleMs have
// gone by since the key's last request that passed; a refused request does
// not move the window. VideoChannel holds one per stream, SfuActor and
// RootRelay one per origin.
class KeyframeRequestThrottle {
 public:
  bool Pass(std::int64_t key, double now_ms);

 private:
  std::map<std::int64_t, double> last_pass_ms_;
};

struct ReceivedFrame {
  std::uint32_t stream_id = 0;
  std::uint32_t frame_index = 0;
  bool keyframe = false;
  std::shared_ptr<const std::vector<std::uint8_t>> data;
  double send_time_ms = 0.0;
  double complete_time_ms = 0.0;  // last fragment arrival
  double release_time_ms = 0.0;   // jitter-buffer playout time
};

struct ChannelConfig {
  LinkConfig link;
  GccConfig gcc;
  double jitter_buffer_ms = 100.0;  // §4.4: "we use 100 ms"
  bool enable_nack = true;
  // ---- Forward error correction (src/fec, DESIGN.md §12) ----
  // Enables the parity send path, receiver-side recovery, and the
  // deadline-aware repair scheduler (which then replaces the blind NACK
  // timer; enable_nack still gates whether admitted repairs may actually
  // retransmit). Per-stream redundancy defaults to 0 until the owner
  // calls SetStreamRedundancy.
  bool enable_fec = false;
  // When non-empty, the channel samples `<obs_label>.queue_delay_ms` and
  // `<obs_label>.delivered_bytes` time series on every Step. Excluded from
  // cache keys: pure observability, no behavioral effect.
  std::string obs_label;
};

struct ChannelStats {
  std::size_t frames_sent = 0;
  std::size_t frames_delivered = 0;
  std::size_t frames_lost = 0;
  std::size_t packets_retransmitted = 0;
  std::size_t keyframe_requests = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_delivered = 0;  // payload bytes released to the app
  // Loss-resilience counters (all zero with FEC disabled).
  std::size_t parity_packets_sent = 0;
  std::size_t parity_bytes_sent = 0;    // wire bytes, subset of bytes_sent
  std::size_t fragments_recovered = 0;  // media fragments rebuilt from parity
  std::size_t nacks_sent = 0;           // retransmit-request rounds (any kind)
  std::size_t repairs_scheduled = 0;    // deadline-admitted repair rounds
  std::size_t repairs_abandoned = 0;    // frames given up before the deadline
};

class VideoChannel {
 public:
  // Frames released from the jitter buffer during Step(), for event-driven
  // receivers. When set, Step() drains PopReady() into the sink.
  using FrameSink =
      std::function<void(std::vector<ReceivedFrame> frames, double now_ms)>;
  // Keyframe requests the receiver raised during Step(), one call per
  // request that passed the channel's KeyframeRequestThrottle. The call
  // comes while the channel walks its pending frames: the sink must not
  // call back into the channel.
  using KeyframeRequestSink =
      std::function<void(std::uint32_t stream_id, double now_ms)>;

  VideoChannel(sim::BandwidthTrace trace, const ChannelConfig& config);

  // Multiplexed construction: the channel is one flow on a link shared
  // with other channels (runtime::SharedLink owns the link and routes
  // delivered packets back via Ingest by flow_id).
  VideoChannel(std::shared_ptr<LinkEmulator> link, const ChannelConfig& config,
               std::uint32_t flow_id);

  // Packetizes and sends one encoded frame on `stream_id`.
  void SendFrame(std::uint32_t stream_id, std::uint32_t frame_index,
                 bool keyframe,
                 std::shared_ptr<const std::vector<std::uint8_t>> data,
                 double now_ms);

  // Advances the channel: delivers packets, runs NACK and feedback logic.
  // Call with monotonically non-decreasing timestamps.
  void Step(double now_ms);

  // Feeds one packet delivered by a shared link (normally called by
  // runtime::SharedLink; Step() does this internally for an owned link).
  void Ingest(const Packet& packet, double now_ms);

  // Earliest virtual time at which Step() could do something it cannot do
  // now: next owned-link delivery, jitter-buffer release, NACK eligibility,
  // playout-deadline expiry, or feedback-report emission. +infinity when
  // fully idle. Strict (">") deadlines are returned as the smallest double
  // after the boundary, so an event scheduled at exactly the returned time
  // observes the condition as true.
  double NextEventTimeMs() const;

  void SetFrameSink(FrameSink sink) { frame_sink_ = std::move(sink); }
  void SetKeyframeRequestSink(KeyframeRequestSink sink) {
    keyframe_request_sink_ = std::move(sink);
  }

  // Frames whose jitter-buffer release time has passed, in order.
  std::vector<ReceivedFrame> PopReady(double now_ms);

  // Current sender-side available-bandwidth estimate (the value LiVo's
  // splitter divides between depth and color).
  double TargetBitrateBps() const { return estimator_.EstimateBps(); }

  // Smoothed application-level RTT (§3.4 halves this for the prediction
  // horizon).
  double SmoothedRttMs() const { return rtt_ms_.value(); }

  // ---- Loss resilience (src/fec, DESIGN.md §12) ----

  // Parity/media ratio for subsequent SendFrame calls on `stream_id`,
  // clamped to [0, fec::kRedundancyCap]. No-op while enable_fec is false.
  void SetStreamRedundancy(std::uint32_t stream_id, double redundancy);

  // Smoothed receiver-path loss fraction from the feedback loop, in
  // [0, 1]; 0 until the first report with traffic.
  double LossEstimate() const {
    return loss_ewma_.initialized() ? loss_ewma_.value() : 0.0;
  }

  // Per-stream receiver-side counters, for per-origin surfacing by the
  // conference layer (0 for streams never seen).
  std::size_t StreamKeyframeRequests(std::uint32_t stream_id) const;
  std::size_t StreamNacks(std::uint32_t stream_id) const;
  std::size_t StreamRecovered(std::uint32_t stream_id) const;

  // Observability hook for the FEC/repair lifecycle. The channel knows
  // only (stream, frame); the owner maps that to whatever identity it
  // ledgers under (origin, subscriber, lane). `bytes` carries the parity
  // payload / recovered fragment size where meaningful.
  enum class FecEvent {
    kParityIngested,
    kRecovered,
    kRepairScheduled,
    kRepairAbandoned,
  };
  using FecEventHook =
      std::function<void(FecEvent event, std::uint32_t stream_id,
                         std::uint32_t frame_index, double now_ms,
                         std::size_t bytes)>;
  void SetFecEventHook(FecEventHook hook) { fec_hook_ = std::move(hook); }

  const ChannelStats& stats() const { return stats_; }
  const LinkEmulator& link() const { return *link_; }
  std::uint32_t flow_id() const { return flow_id_; }

 private:
  struct PendingFrame {  // receiver-side reassembly state
    std::uint32_t stream_id = 0;
    std::uint32_t frame_index = 0;
    bool keyframe = false;
    std::shared_ptr<const std::vector<std::uint8_t>> data;
    std::vector<bool> have;
    int received = 0;
    // FEC state: which parity packets arrived (sized parity_count on the
    // first parity arrival) — media completion still only counts `have`.
    std::vector<bool> parity_have;
    std::uint16_t parity_count = 0;
    double send_time_ms = 0.0;
    double last_arrival_ms = 0.0;
    double nacked_at_ms = -1.0;
    // Repair scheduler verdict: no repair round-trip can beat the playout
    // deadline, so no more repair rounds are spent — but fragments already
    // in flight (or parity) may still complete the frame naturally before
    // the deadline timeout declares it lost.
    bool repair_given_up = false;

    bool Complete() const {
      return received == static_cast<int>(have.size()) && !have.empty();
    }
  };

  struct SentPacketRecord {  // sender-side store for retransmission
    Packet packet;
    std::shared_ptr<const std::vector<std::uint8_t>> data;
  };

  using FrameKey = std::pair<std::uint32_t, std::uint32_t>;  // (stream, frame)

  void DeliverPacket(
      const Packet& packet,
      const std::shared_ptr<const std::vector<std::uint8_t>>& data,
      double now_ms);
  void RunNack(double now_ms);
  // Deadline-aware replacement for RunNack when enable_fec is set.
  void RunRepairScheduler(double now_ms);
  // Resends the media fragments `frame` still lacks from the sender store.
  void Retransmit(const PendingFrame& frame, double now_ms);
  // Rebuilds every fragment a present parity group can recover; releases
  // the frame if that completes it.
  void TryRecover(const FrameKey& key, double now_ms);
  // Marks media fragment `index` of `frame` received (recovery path).
  void MarkFragmentRecovered(PendingFrame& frame, int index, double now_ms);
  void ReleaseComplete(const FrameKey& key, double now_ms);
  double RedundancyFor(std::uint32_t stream_id) const;
  void EmitFeedback(double now_ms);
  // The timer half of Step(): NACK/repairs, playout deadlines, feedback.
  void ProcessTimers(double now_ms);

  ChannelConfig config_;
  std::shared_ptr<LinkEmulator> link_;
  bool owns_link_ = true;  // false => a SharedLink polls and routes for us
  std::uint32_t flow_id_ = 0;
  // Registry-owned; null when config_.obs_label is empty.
  obs::TimeSeries* queue_delay_series_ = nullptr;
  obs::TimeSeries* delivered_series_ = nullptr;
  FrameSink frame_sink_;
  KeyframeRequestSink keyframe_request_sink_;
  KeyframeRequestThrottle keyframe_throttle_;  // by stream id
  GccEstimator estimator_;
  util::Ewma rtt_ms_{0.2};
  util::Ewma loss_ewma_{0.3};
  ChannelStats stats_;
  FecEventHook fec_hook_;
  std::map<std::uint32_t, double> stream_redundancy_;
  // Receiver-side per-stream counters (per-origin telemetry surfacing).
  std::map<std::uint32_t, std::size_t> stream_plis_;
  std::map<std::uint32_t, std::size_t> stream_nacks_;
  std::map<std::uint32_t, std::size_t> stream_recovered_;

  std::uint64_t next_sequence_ = 0;
  std::map<std::uint64_t, SentPacketRecord> sent_store_;
  std::map<FrameKey, PendingFrame> pending_;
  std::map<std::uint32_t, std::uint32_t> last_released_;  // per stream
  std::vector<ReceivedFrame> ready_;

  // Feedback accounting for the current interval.
  double last_feedback_ms_ = 0.0;
  std::size_t fb_bytes_ = 0;
  int fb_packets_ = 0;
  double fb_delay_sum_ms_ = 0.0;
  double fb_last_mean_delay_ms_ = 0.0;
  std::uint64_t fb_highest_seq_ = 0;
  std::uint64_t fb_received_unique_ = 0;
  std::int64_t fb_prev_gap_ = 0;
};

// TCP-like reliable in-order byte channel (MeshReduce's transport).
class ReliableChannel {
 public:
  ReliableChannel(sim::BandwidthTrace trace, const LinkConfig& config);

  // Queues a message (one encoded mesh frame). Delivery is never lost but
  // waits for serialization behind earlier messages; random loss is modeled
  // as goodput reduction (retransmissions consume capacity).
  void SendMessage(std::uint32_t frame_index, std::size_t bytes, double now_ms);

  struct Delivered {
    std::uint32_t frame_index;
    std::size_t bytes;
    double send_time_ms;
    double arrival_time_ms;
  };
  std::vector<Delivered> PopReady(double now_ms);

  // Event-driven interface mirroring VideoChannel's: the next arrival time
  // (+infinity when idle) and a Step() that drains arrivals into the sink.
  using DeliverySink = std::function<void(const Delivered& message)>;
  double NextEventTimeMs() const;
  void SetDeliverySink(DeliverySink sink) { delivery_sink_ = std::move(sink); }
  void Step(double now_ms);

  // Bytes not yet fully serialized (send backlog).
  std::size_t BacklogBytes(double now_ms) const;

 private:
  struct InFlight {
    std::uint32_t frame_index;
    std::size_t bytes;
    double send_time_ms;
    double arrival_ms;
  };

  sim::BandwidthTrace trace_;
  LinkConfig config_;
  double next_free_ms_ = 0.0;
  std::deque<InFlight> in_flight_;
  DeliverySink delivery_sink_;
};

}  // namespace livo::net
