// Trace-driven link emulation (Mahimahi-style, §4.1 "we replay the network
// traces using Mahimahi to emulate the bandwidth conditions").
//
// A single-server queue: packets serialize at the instantaneous trace rate,
// wait behind earlier packets (drop-tail beyond a queue-delay bound), then
// experience fixed propagation delay; optional i.i.d. random loss models
// residual wireless loss.
#pragma once

#include <deque>
#include <vector>

#include "net/packet.h"
#include "sim/nettrace.h"
#include "util/rng.h"

namespace livo::net {

// Random-loss process applied before the queue. kIid draws one Bernoulli
// per packet at loss_rate. kGilbertElliott runs the classic two-state
// burst model: a good state losing at loss_rate and a bad state losing
// half its packets, with fixed per-packet transition probabilities between
// them — the stationary loss rate is available via MeanLossRate for
// budgeting.
enum class LossModel {
  kIid = 0,
  kGilbertElliott = 1,
};

struct LinkConfig {
  double propagation_delay_ms = 20.0;  // one-way
  double max_queue_delay_ms = 300.0;   // drop-tail bound
  double loss_rate = 0.0;              // loss probability (good state)
  double bandwidth_scale = 1.0;        // applied to the trace (DESIGN.md §1)
  std::uint64_t seed = 7;
  LossModel loss_model = LossModel::kIid;
};

// Long-run expected loss rate of the configured model: loss_rate for iid,
// the stationary two-state mixture for Gilbert–Elliott. Used to price
// parity overhead where no live loss estimate exists yet.
double MeanLossRate(const LinkConfig& config);

class LinkEmulator {
 public:
  LinkEmulator(sim::BandwidthTrace trace, const LinkConfig& config);

  // Enqueues a packet at `now_ms`. Returns false if the packet was dropped
  // (queue overflow or random loss).
  bool Send(Packet packet, double now_ms);

  // Returns packets whose arrival time is <= now_ms, in arrival order,
  // with arrival_time_ms stamped.
  std::vector<Packet> Poll(double now_ms);

  // Arrival time of the earliest in-flight packet, or +infinity when the
  // link is idle. Lets an event loop jump to the next delivery instead of
  // polling every millisecond (in-flight packets are FIFO by arrival, so
  // the front is the minimum).
  double NextEventTimeMs() const;

  // Instantaneous capacity in bits per millisecond after scaling.
  double CapacityBitsPerMs(double now_ms) const;

  // Queuing delay a packet sent now would experience (congestion signal).
  double CurrentQueueDelayMs(double now_ms) const;

  std::size_t packets_dropped() const { return packets_dropped_; }
  std::size_t packets_sent() const { return packets_sent_; }

 private:
  struct InFlight {
    Packet packet;
    double arrival_ms;
  };

  // Draws the loss process for one packet (advances the GE chain).
  bool DrawLoss();

  sim::BandwidthTrace trace_;
  LinkConfig config_;
  util::Rng rng_;
  bool ge_bad_ = false;        // Gilbert–Elliott chain state
  double next_free_ms_ = 0.0;  // when the serializer becomes idle
  std::deque<InFlight> in_flight_;
  std::size_t packets_dropped_ = 0;
  std::size_t packets_sent_ = 0;
};

}  // namespace livo::net
