// Two-level downlink bandwidth allocator (livo::conference).
//
// A point-to-point LiVo sender splits one bandwidth estimate between its
// depth and color streams (core/split.h, §3.3). An SFU subscriber's
// downlink instead carries N-1 remote participants, each a depth/color
// pair, so the split becomes two-level:
//
//   level 1 — the subscriber's downlink budget (its live GCC estimate,
//   integrated over one allocation interval) is divided across remotes in
//   proportion to how much of each remote's seat is inside the
//   subscriber's predicted frustum, floored so off-screen participants
//   keep a trickle (they can re-enter view at any head turn, and a cold
//   stream would need a keyframe round-trip to restart);
//
//   level 2 — each remote's share is divided depth-vs-color by the same
//   line-search SplitController the sender uses, driven by the origin's
//   own encode-probe RMSEs, which the SFU reads from the forwarded frame
//   metadata (the in-process stand-in for an RTP header extension).
//
// Shares are enforced with per-(subscriber, remote, stream) token
// buckets: every interval each bucket refills by its share of the budget
// and caps at (1 + burst_credit_intervals) refills, so a keyframe can
// spend banked credit but sustained overshoot cannot. Forwarding is
// pair-atomic (the two streams are useless alone), so every pair is
// priced against the remote's two buckets pooled: each half spends its
// own bucket first and borrows only its shortfall from the sibling.
//
// The same allocator admits simulcast ladders for SFU subscribers and for
// cascade relay pipes (cascade.h), through one rule (Admit): a keyframe
// ladder may re-anchor the stream at any affordable, sustainable layer,
// and a P ladder must continue the stream's current layer. The sustained
// price of each layer comes from one LadderPricer.
//
// Every closed interval emits an AllocationAuditRow; the invariant
// forwarded <= budget + carried credit is what tests/test_conference.cc
// asserts on every row.
#pragma once

#include <cstddef>
#include <vector>

#include "conference/topology.h"
#include "core/split.h"

namespace livo::conference {

// Length of one allocation interval: subscriber downlinks and relay pipes
// refill their token buckets, and the SFU audits them, on this grid.
inline constexpr double kAllocationIntervalMs = 100.0;
// Level-1 share floor that keeps an off-screen remote's trickle (at most
// half the equal share; see NormalizeShares).
inline constexpr double kShareFloor = 0.15;

struct AllocatorConfig {
  // Refills a token bucket may bank beyond the current one.
  double burst_credit_intervals = 2.0;
  // Simulcast ladder depth the SFU offers per origin (1 = no ladder).
  // Only sizes the per-row forwarded_by_layer histogram; pricing itself is
  // driven by the candidate vector each Admit call carries.
  int layers = 1;
  // FEC parity surcharge (src/fec, DESIGN.md §12): every debit is priced
  // at (1 + parity_overhead) x the media bytes, so the token buckets
  // reserve headroom for the parity packets that ride each forwarded
  // pair. forwarded_bytes in the audit rows stays media-only (the ledger
  // reconciliation compares against media payloads).
  double parity_overhead = 0.0;
};

// One closed allocation interval for one subscriber.
struct AllocationAuditRow {
  double start_ms = 0.0;
  int subscriber = 0;
  double budget_bytes = 0.0;     // GCC estimate integrated over the interval
  double credit_bytes = 0.0;     // bucket credit carried in from the past
  double forwarded_bytes = 0.0;  // wire payload actually forwarded
  std::vector<double> shares;    // level-1 share per remote slot
  // Pairs forwarded at each ladder layer this interval (size = layers).
  std::vector<std::size_t> forwarded_by_layer;
};

// The allocator settings a conference of `parties` runs, for subscriber
// downlinks and relay pipes alike. The FEC parity surcharge is planned
// from the downlink's mean loss rate: everything a relay pipe admits is
// eventually re-sent on a lossy destination downlink carrying parity
// (cascades run private links only, so that is downlink_channel.link).
AllocatorConfig MakeAllocatorConfig(const ConferenceOptions& options,
                                    int parties);

// One simulcast layer's encoded pair as offered to the allocator. A layer
// whose halves did not all survive the uplink is marked invalid and never
// chosen.
struct LayerPairBytes {
  std::size_t color_bytes = 0;
  std::size_t depth_bytes = 0;
  bool valid = false;
  // Estimated cost of carrying this layer for one whole allocation
  // interval (LadderPricer). Zero means unknown — the sustained check is
  // skipped.
  double sustained_interval_bytes = 0.0;
};

// Sustained-rate price sheet: an EMA of each (origin, layer) candidate's
// pair bytes, scaled to pairs per allocation interval. Seeded from the
// first keyframe ladder (scaled down: keyframes dwarf P-pairs), then fed
// by P ladders only. Virtual-time deterministic.
class LadderPricer {
 public:
  LadderPricer(int origins, int layers);

  // Updates `origin`'s EMAs from every valid candidate and fills its
  // sustained_interval_bytes. Call exactly once per ladder, before any
  // verdict, so every verdict on that ladder sees the same prices.
  // Candidates may be single layers (SFU) or cumulative prefixes (relay
  // pipes); the pricer only sees their bytes.
  void Price(int origin, bool key_pair, double capture_interval_ms,
             std::vector<LayerPairBytes>& candidates);

 private:
  std::vector<std::vector<double>> ema_;  // [origin][layer]
};

class DownlinkAllocator {
 public:
  // Admit verdicts below zero.
  static constexpr int kOverBudget = -1;
  // A P ladder whose stream has no current layer, or whose current layer
  // is not among the candidates (it lost a half uplink).
  static constexpr int kNoCurrentLayer = -2;

  // `participants` conference members; each subscriber sees
  // participants - 1 remote slots.
  DownlinkAllocator(int participants, const AllocatorConfig& config);

  // Closes the subscriber's previous interval (emitting its audit row),
  // recomputes level-1 shares from `visibility` (one weight in [0,1] per
  // remote slot; all-zero means nothing is on screen and shares fall back
  // to equal), and refills the token buckets from `budget_bytes`.
  void BeginInterval(int subscriber, double start_ms, double budget_bytes,
                     const std::vector<double>& visibility);

  // The ladder-admission rule for the (subscriber, slot) stream.
  // `candidates[q]` is ladder layer q's pair (top layer last). A keyframe
  // ladder re-anchors the stream at TryForwardLayered's choice, which
  // becomes the stream's current layer. A P ladder must continue the
  // current layer — switching mid-GOP would hand a decoder a P-frame
  // from a stream it never anchored — and is debited at that layer only.
  // Returns the layer forwarded, kOverBudget, or kNoCurrentLayer.
  int Admit(int subscriber, int slot, bool key_pair,
            const std::vector<LayerPairBytes>& candidates);
  // Layer the (subscriber, slot) stream currently rides; -1 until its
  // first keyframe ladder is admitted. Changes only on keyframes.
  int CurrentLayer(int subscriber, int slot) const;

  // Admit's keyframe verdict: walks the valid layers top-down, debits the
  // first one the (subscriber, slot) buckets can afford and returns its
  // index — the max layer the budget can pay for — or -1 if even the
  // cheapest valid layer does not fit. On keyframe pairs a layer above
  // the cheapest valid one must also be sustainable: its
  // sustained_interval_bytes may not exceed the slot's per-interval
  // refill, because the keyframe re-anchors the stream and commits every
  // following P-pair to that layer until the next key. Without this check
  // the pooled borrow affords the top layer at every re-anchor and the
  // stream thrashes (anchor high, starve, drop, PLI). The cheapest valid
  // layer is exempt — sending something always beats dropping. Before
  // the first BeginInterval nothing is known about the downlink, so the
  // top valid layer passes undebited.
  int TryForwardLayered(int subscriber, int slot, bool keyframe,
                        const std::vector<LayerPairBytes>& layers);

  // Feeds one origin encode-probe result into the (subscriber, slot)
  // line-search controller.
  void ObserveProbe(int subscriber, int slot, double rmse_depth,
                    double rmse_color);

  // Level-1 share of the last BeginInterval (0 before the first one).
  double ShareOf(int subscriber, int slot) const;
  // Level-2 depth fraction of the (subscriber, slot) controller.
  double SplitOf(int subscriber, int slot) const;
  bool Initialized(int subscriber) const;

  // Closes all open intervals (end of session) and returns every audit
  // row recorded, in emission order.
  std::vector<AllocationAuditRow> TakeAudits();

 private:
  struct Subscriber {
    double interval_start_ms = -1.0;  // <0: no interval opened yet
    double budget_bytes = 0.0;
    double credit_at_start = 0.0;
    double forwarded_bytes = 0.0;
    std::vector<std::size_t> forwarded_by_layer;
    std::vector<double> shares;
    std::vector<double> color_credit;
    std::vector<double> depth_credit;
    std::vector<core::SplitController> split;
    std::vector<int> current_layer;  // by slot, -1 before the first key
  };

  void CloseInterval(int subscriber);
  // Debits layer q's pair from the slot's pooled buckets and counts it as
  // forwarded; false (nothing debited) if it does not fit.
  bool DebitPair(Subscriber& sub, std::size_t slot, int q,
                 const LayerPairBytes& layer);
  std::vector<double> NormalizeShares(
      const std::vector<double>& visibility) const;

  AllocatorConfig config_;
  int slots_ = 0;
  std::vector<Subscriber> subscribers_;
  std::vector<AllocationAuditRow> audits_;
};

}  // namespace livo::conference
