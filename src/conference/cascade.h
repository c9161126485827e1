// Cascaded edge SFUs (livo::conference).
//
// A direct conference runs one SfuActor with every participant local. A
// cascade (ConferenceOptions::regions > 1) splits the roster into
// contiguous regions, gives each its own edge SfuActor, and chains the
// edges through a root relay:
//
//   participant -> edge SFU -> [edge->root pipe] -> root -> [root->edge
//   pipe per destination] -> destination edge SFU -> subscriber
//
// Each pipe is a rate-limited FIFO (RelayPipe): payloads serialize at
// relay_rate_mbps and then cross a relay_hop_delay_ms propagation leg,
// which is also the LoopGroup lookahead window — every region lives in its
// own loop-group domain and all inter-region traffic rides
// CrossLoopChannels, so a cascaded conference shards across threads with
// bit-identical results for any shard count.
//
// Each pipe is one relay stage (RelayStage): a DownlinkAllocator with the
// pipe as its single pseudo-subscriber, a LadderPricer and the RelayPipe.
// Flow control is a cascaded two-level allocation over those stages:
//
//   * each edge reports, once per allocation interval, its *demand* for
//     every origin (max predicted visibility over its local subscribers);
//   * the root prices each destination pipe's bandwidth across the
//     non-local origins using that destination's demand as the level-1
//     weights, and aggregates the remote demand per origin back to the
//     origin's edge;
//   * the origin's edge prices its uplink pipe across its local origins
//     using those aggregated weights, so a ladder nobody remote can see
//     is floored down before it ever crosses the first hop.
//
// What crosses a pipe is a ladder *prefix* [0..k]: every surviving layer
// up to k, so destination edges keep the freedom to layer-switch their
// own subscribers. Prefixes are priced cumulatively (candidate k pays for
// every surviving layer up to k, and the stage's LadderPricer keeps the
// sustained price of those cumulative bytes) and are admitted by the same
// DownlinkAllocator::Admit rule as subscriber streams: keyframe ladders
// may re-anchor at any affordable prefix, P ladders must continue the
// current prefix exactly or drop (and re-key, throttled). Growing the
// prefix mid-GOP would ship P-layers no destination decoder can anchor;
// shrinking it would break streams riding the trimmed layers.
//
// The FrameLedger sees every hop: kRelayForwarded per layer admitted onto
// a pipe (subscriber -1 for edge->root, -2 - dest_region for root->edge),
// kRelayIngested per layer arriving at a destination edge, kRelayDropped
// per rejected ladder. livo_report --check enforces conservation across
// these (a layer ingested at a destination must have been forwarded to it,
// and root->edge pipes never lose).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "conference/allocator.h"
#include "conference/sfu.h"
#include "conference/topology.h"
#include "net/transport.h"
#include "runtime/cross_loop_channel.h"

namespace livo::conference {

class RootRelay;

// Counters for one relay stage; RunConference sums every stage's stats
// into ConferenceResult::relay.
struct RelayStats {
  std::size_t ladders_offered = 0;   // completed local ladders offered up
  std::size_t prefixes_admitted = 0; // prefixes that crossed a pipe
  std::size_t prefixes_dropped_budget = 0;
  std::size_t layers_relayed = 0;    // individual layers crossing a pipe
  std::uint64_t relay_bytes = 0;     // payload bytes crossing pipes
  std::size_t pli_relays = 0;        // cross-region PLIs through the root
  std::size_t demand_reports = 0;    // edge->root flow-control reports

  RelayStats& operator+=(const RelayStats& other);
};

// One rate-limited relay pipe: serializes payloads FIFO at rate_mbps
// (model-scaled, like the access traces after bandwidth_scale), then a
// fixed propagation leg. Returns the tail byte's arrival time; callers
// turn that into a CrossLoopChannel delay, which stays >= hop_delay_ms —
// the LoopGroup window — by construction.
class RelayPipe {
 public:
  RelayPipe(double rate_mbps, double hop_delay_ms);
  double SendArrivalMs(double now_ms, std::uint64_t bytes);

 private:
  double rate_bps_;
  double hop_delay_ms_;
  double busy_until_ms_ = 0.0;
};

// One relay pipe — edge->root, or root->one destination edge — with the
// allocator that admits ladder prefixes onto it (subscriber 0 is the pipe,
// slots are the origins it carries) and their price sheet. Verdicts are
// recorded in the FrameLedger under `ledger_subscriber`: -1 for an
// edge->root stage, -2 - dest_region for a root->edge one.
struct RelayStage {
  RelayStage(int slots, int ledger_subscriber,
             const ConferenceOptions& options, int parties);

  // An admitted prefix: the ladder trimmed to it, and when its tail byte
  // reaches the far end of the pipe.
  struct Hop {
    RelayLadder ladder;
    double arrival_ms = 0.0;
  };
  // Prices `ladder` for origin `slot`, admits a prefix onto the pipe and
  // records the verdict in `stats` and the ledger. Empty if no prefix was
  // admitted; the caller then asks for a re-key.
  std::optional<Hop> Offer(int slot, const RelayLadder& ladder, double now_ms,
                           RelayStats& stats);

  DownlinkAllocator alloc;
  LadderPricer pricer;
  RelayPipe pipe;
  int ledger_subscriber;
};

// The per-region end of the cascade, owned by RunConference and installed
// into its region's SfuActor via ConfigureCascade. All methods run on the
// region's loop; everything sent to the root is a closure that runs on
// the root's loop (deterministically ordered by the channel contract).
class EdgeRelay {
 public:
  EdgeRelay(int region, const std::vector<int>& region_of,
            const ConferenceOptions& options, int parties,
            runtime::CrossLoopChannel* to_root, RootRelay* root,
            SfuActor* local_sfu);

  // A local ladder completed; decides which prefix (if any) to admit onto
  // the edge->root pipe.
  void OfferLadder(const RelayLadder& ladder, double now_ms);
  // A local subscriber needs a keyframe from a remote origin (PLI).
  void RequestRemoteKeyframe(int origin, double now_ms);
  // Called once per allocation interval with this edge's demand for every
  // origin (max visibility over local subscribers; the inter-SFU
  // flow-control signal). Rolls the relay allocator's interval. `start_ms`
  // is the interval boundary, `now_ms` the event actually driving it
  // (catch-up intervals run late; sends must use `now_ms`).
  void OnAllocationInterval(double start_ms, const std::vector<double>& demand,
                            double now_ms);
  // Relay-pipe bandwidth currently granted to `origin`'s ladder, bits/s —
  // the cascade's contribution to OriginBudgetBps. Negative before the
  // relay's first allocation interval (treated as "no opinion yet").
  double RelayBudgetBps(int origin) const;

  // Aggregated remote demand for this edge's local origins (slot order),
  // delivered from the root on this edge's loop.
  void OnUpstreamWeights(const std::vector<double>& weights);

  const RelayStats& stats() const { return stats_; }

 private:
  int region_;
  std::vector<int> local_rank_;  // origin -> slot among locals, -1 remote
  int local_n_ = 0;
  const ConferenceOptions& options_;
  runtime::CrossLoopChannel* to_root_;
  RootRelay* root_;
  SfuActor* sfu_;

  RelayStage stage_;                     // the edge->root pipe
  std::vector<double> upstream_weights_; // by local slot, seeded 1.0
  RelayStats stats_;
};

// The cascade's hub, living in its own loop-group domain. Every method is
// invoked by channel closures on the root's loop.
class RootRelay {
 public:
  RootRelay(const std::vector<int>& region_of, const ConferenceOptions& options,
            int parties, int regions);

  // Wiring, before Start: the root's downstream channel to `region`, the
  // region's edge SfuActor (ladder/PLI sink) and EdgeRelay (weight sink).
  void AttachRegion(int region, runtime::CrossLoopChannel* to_edge,
                    SfuActor* edge_sfu, EdgeRelay* edge_relay);

  // An edge's per-interval demand report: rolls that destination's pipe
  // allocator and refreshes every other edge's upstream weights.
  void OnEdgeDemand(int region, double start_ms,
                    const std::vector<double>& demand, double now_ms);
  // An admitted prefix arrived over an edge->root pipe.
  void OnEdgeLadder(const RelayLadder& ladder, double now_ms);
  // The root's one entry for keyframe requests: forwards a PLI for
  // `origin` to the origin's edge, throttled per origin
  // (net::KeyframeRequestThrottle, the rule the SFU and the transport
  // apply). Callers: an edge relaying a request for a remote origin
  // (EdgeRelay::RequestRemoteKeyframe, from SfuActor::RequestOriginKeyframe),
  // and OnEdgeLadder when a root->edge pipe refuses a ladder.
  void RelayKeyframeRequest(int origin, double now_ms);

  const RelayStats& stats() const { return stats_; }

 private:
  struct Dest {
    runtime::CrossLoopChannel* to_edge = nullptr;
    SfuActor* sfu = nullptr;
    EdgeRelay* relay = nullptr;
    std::vector<int> slot_of_origin;  // -1 for the dest's own origins
    int slots = 0;
    std::unique_ptr<RelayStage> stage;  // the root->dest pipe
  };

  std::vector<int> region_of_;
  const ConferenceOptions& options_;
  int parties_;
  int regions_;
  std::vector<Dest> dests_;
  std::vector<std::vector<double>> demand_by_region_;  // empty until heard
  net::KeyframeRequestThrottle pli_throttle_;          // by origin
  RelayStats stats_;
};

}  // namespace livo::conference
