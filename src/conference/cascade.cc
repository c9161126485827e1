#include "conference/cascade.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace livo::conference {
namespace {

double PipeIntervalBytes(const ConferenceOptions& options) {
  return options.relay_rate_mbps * 1e6 / 8.0 * kAllocationIntervalMs /
         1000.0;
}

}  // namespace

RelayStats& RelayStats::operator+=(const RelayStats& other) {
  ladders_offered += other.ladders_offered;
  prefixes_admitted += other.prefixes_admitted;
  prefixes_dropped_budget += other.prefixes_dropped_budget;
  layers_relayed += other.layers_relayed;
  relay_bytes += other.relay_bytes;
  pli_relays += other.pli_relays;
  demand_reports += other.demand_reports;
  return *this;
}

RelayPipe::RelayPipe(double rate_mbps, double hop_delay_ms)
    : rate_bps_(std::max(rate_mbps, 1e-6) * 1e6),
      hop_delay_ms_(hop_delay_ms) {}

double RelayPipe::SendArrivalMs(double now_ms, std::uint64_t bytes) {
  const double start_ms = std::max(now_ms, busy_until_ms_);
  const double serialize_ms =
      static_cast<double>(bytes) * 8.0 / rate_bps_ * 1000.0;
  busy_until_ms_ = start_ms + serialize_ms;
  return busy_until_ms_ + hop_delay_ms_;
}

RelayStage::RelayStage(int slots, int ledger_subscriber,
                       const ConferenceOptions& options, int parties)
    : alloc(slots + 1, MakeAllocatorConfig(options, parties)),
      pricer(parties, EffectiveLadderLayers(options, parties)),
      pipe(options.relay_rate_mbps, options.relay_hop_delay_ms),
      ledger_subscriber(ledger_subscriber) {}

std::optional<RelayStage::Hop> RelayStage::Offer(int slot,
                                                 const RelayLadder& ladder,
                                                 double now_ms,
                                                 RelayStats& stats) {
  if (ladder.has_stats && ladder.stats.rmse_depth >= 0.0) {
    alloc.ObserveProbe(0, slot, ladder.stats.rmse_depth,
                       ladder.stats.rmse_color);
  }
  // Cumulative price sheet: candidate q is valid iff layer q survived, and
  // costs every surviving layer <= q (the whole prefix crosses the pipe).
  std::vector<LayerPairBytes> candidates(ladder.layers.size());
  std::size_t cum_color = 0;
  std::size_t cum_depth = 0;
  for (std::size_t q = 0; q < ladder.layers.size(); ++q) {
    const LadderPair& layer = ladder.layers[q];
    if (!layer.Complete()) continue;
    cum_color += layer.color->size();
    cum_depth += layer.depth->size();
    candidates[q].color_bytes = cum_color;
    candidates[q].depth_bytes = cum_depth;
    candidates[q].valid = true;
  }
  pricer.Price(ladder.origin, ladder.key_pair, ladder.capture_interval_ms,
               candidates);
  const int prefix = alloc.Admit(0, slot, ladder.key_pair, candidates);
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  const auto frame = static_cast<std::int32_t>(ladder.frame_index);
  if (prefix < 0) {
    ++stats.prefixes_dropped_budget;
    if (ledger.enabled()) {
      ledger.Record(ladder.origin, frame, ledger_subscriber,
                    obs::LedgerHop::kRelayDropped, now_ms,
                    cum_color + cum_depth, ladder.key_pair, -1);
    }
    return std::nullopt;
  }
  Hop hop;
  hop.ladder = ladder;
  for (std::size_t q = 0; q < ladder.layers.size(); ++q) {
    const LadderPair& layer = ladder.layers[q];
    if (static_cast<int>(q) > prefix) {
      hop.ladder.layers[q] = LadderPair{};
      continue;
    }
    if (!layer.Complete()) continue;
    ++stats.layers_relayed;
    if (ledger.enabled()) {
      ledger.Record(ladder.origin, frame, ledger_subscriber,
                    obs::LedgerHop::kRelayForwarded, now_ms,
                    layer.color->size() + layer.depth->size(),
                    ladder.key_pair, static_cast<int>(q));
    }
  }
  const LayerPairBytes& admitted =
      candidates[static_cast<std::size_t>(prefix)];
  const std::uint64_t bytes = admitted.color_bytes + admitted.depth_bytes;
  ++stats.prefixes_admitted;
  stats.relay_bytes += bytes;
  hop.arrival_ms = pipe.SendArrivalMs(now_ms, bytes);
  return hop;
}

EdgeRelay::EdgeRelay(int region, const std::vector<int>& region_of,
                     const ConferenceOptions& options, int parties,
                     runtime::CrossLoopChannel* to_root, RootRelay* root,
                     SfuActor* local_sfu)
    : region_(region),
      local_rank_(region_of.size(), -1),
      options_(options),
      to_root_(to_root),
      root_(root),
      sfu_(local_sfu),
      stage_(static_cast<int>(
                 std::count(region_of.begin(), region_of.end(), region)),
             -1, options, parties) {
  for (std::size_t p = 0; p < region_of.size(); ++p) {
    if (region_of[p] == region) local_rank_[p] = local_n_++;
  }
  upstream_weights_.assign(static_cast<std::size_t>(local_n_), 1.0);
}

void EdgeRelay::OfferLadder(const RelayLadder& ladder, double now_ms) {
  ++stats_.ladders_offered;
  std::optional<RelayStage::Hop> hop = stage_.Offer(
      local_rank_[static_cast<std::size_t>(ladder.origin)], ladder, now_ms,
      stats_);
  if (!hop) {
    // Remote streams riding this origin cannot extend past the gap; ask
    // for a re-key so the next offer may re-anchor at a cheaper prefix
    // (RequestOriginKeyframe routes to the origin, throttled).
    sfu_->RequestOriginKeyframe(ladder.origin, now_ms);
    return;
  }
  RootRelay* root = root_;
  to_root_->Send(now_ms, hop->arrival_ms - now_ms,
                 [root, msg = std::move(hop->ladder)](double t) {
                   root->OnEdgeLadder(msg, t);
                 });
}

void EdgeRelay::RequestRemoteKeyframe(int origin, double now_ms) {
  RootRelay* root = root_;
  to_root_->Send(now_ms, options_.relay_hop_delay_ms,
                 [root, origin](double t) {
                   root->RelayKeyframeRequest(origin, t);
                 });
}

void EdgeRelay::OnAllocationInterval(double start_ms,
                                     const std::vector<double>& demand,
                                     double now_ms) {
  ++stats_.demand_reports;
  RootRelay* root = root_;
  const int region = region_;
  to_root_->Send(now_ms, options_.relay_hop_delay_ms,
                 [root, region, start_ms, demand](double t) {
                   root->OnEdgeDemand(region, start_ms, demand, t);
                 });
  stage_.alloc.BeginInterval(0, start_ms, PipeIntervalBytes(options_),
                             upstream_weights_);
}

double EdgeRelay::RelayBudgetBps(int origin) const {
  if (!stage_.alloc.Initialized(0)) return -1.0;
  const int slot = local_rank_[static_cast<std::size_t>(origin)];
  if (slot < 0) return -1.0;
  return stage_.alloc.ShareOf(0, slot) * options_.relay_rate_mbps * 1e6;
}

void EdgeRelay::OnUpstreamWeights(const std::vector<double>& weights) {
  if (static_cast<int>(weights.size()) == local_n_) {
    upstream_weights_ = weights;
  }
}

RootRelay::RootRelay(const std::vector<int>& region_of,
                     const ConferenceOptions& options, int parties,
                     int regions)
    : region_of_(region_of),
      options_(options),
      parties_(parties),
      regions_(regions),
      dests_(static_cast<std::size_t>(regions)),
      demand_by_region_(static_cast<std::size_t>(regions)),
      last_pli_ms_(static_cast<std::size_t>(parties),
                   -net::kKeyframeRequestThrottleMs) {
  for (int d = 0; d < regions_; ++d) {
    Dest& dest = dests_[static_cast<std::size_t>(d)];
    dest.slot_of_origin.assign(static_cast<std::size_t>(parties_), -1);
    for (int o = 0; o < parties_; ++o) {
      if (region_of_[static_cast<std::size_t>(o)] == d) continue;
      dest.slot_of_origin[static_cast<std::size_t>(o)] = dest.slots++;
    }
    dest.stage =
        std::make_unique<RelayStage>(dest.slots, -2 - d, options, parties);
  }
}

void RootRelay::AttachRegion(int region, runtime::CrossLoopChannel* to_edge,
                             SfuActor* edge_sfu, EdgeRelay* edge_relay) {
  Dest& dest = dests_[static_cast<std::size_t>(region)];
  dest.to_edge = to_edge;
  dest.sfu = edge_sfu;
  dest.relay = edge_relay;
}

void RootRelay::OnEdgeDemand(int region, double start_ms,
                             const std::vector<double>& demand,
                             double now_ms) {
  demand_by_region_[static_cast<std::size_t>(region)] = demand;
  // Roll this destination's pipe allocator: its level-1 weights are the
  // destination's own demand for each non-local origin.
  Dest& dest = dests_[static_cast<std::size_t>(region)];
  std::vector<double> visibility(static_cast<std::size_t>(dest.slots), 0.0);
  for (int o = 0; o < parties_; ++o) {
    const int slot = dest.slot_of_origin[static_cast<std::size_t>(o)];
    if (slot < 0) continue;
    visibility[static_cast<std::size_t>(slot)] =
        demand[static_cast<std::size_t>(o)];
  }
  dest.stage->alloc.BeginInterval(0, start_ms, PipeIntervalBytes(options_),
                                 visibility);
  // Refresh every other edge's upstream weights: for each of its local
  // origins, the max demand any remote region has reported so far.
  for (int e = 0; e < regions_; ++e) {
    if (e == region) continue;
    const Dest& peer = dests_[static_cast<std::size_t>(e)];
    if (peer.to_edge == nullptr) continue;
    std::vector<double> weights;
    bool heard = false;
    for (int o = 0; o < parties_; ++o) {
      if (region_of_[static_cast<std::size_t>(o)] != e) continue;
      double w = 0.0;
      for (int r = 0; r < regions_; ++r) {
        if (r == e) continue;
        const auto& d = demand_by_region_[static_cast<std::size_t>(r)];
        if (d.empty()) continue;
        heard = true;
        w = std::max(w, d[static_cast<std::size_t>(o)]);
      }
      weights.push_back(w);
    }
    if (!heard) continue;
    EdgeRelay* relay = peer.relay;
    peer.to_edge->Send(now_ms, options_.relay_hop_delay_ms,
                       [relay, weights = std::move(weights)](double) {
                         relay->OnUpstreamWeights(weights);
                       });
  }
}

void RootRelay::OnEdgeLadder(const RelayLadder& ladder, double now_ms) {
  const int origin_region = region_of_[static_cast<std::size_t>(ladder.origin)];
  for (int d = 0; d < regions_; ++d) {
    if (d == origin_region) continue;
    Dest& dest = dests_[static_cast<std::size_t>(d)];
    std::optional<RelayStage::Hop> hop = dest.stage->Offer(
        dest.slot_of_origin[static_cast<std::size_t>(ladder.origin)], ladder,
        now_ms, stats_);
    if (!hop) {
      RelayKeyframeRequest(ladder.origin, now_ms);
      continue;
    }
    SfuActor* sfu = dest.sfu;
    dest.to_edge->Send(now_ms, hop->arrival_ms - now_ms,
                       [sfu, msg = std::move(hop->ladder)](double t) {
                         sfu->OnRelayLadder(msg, t);
                       });
  }
}

void RootRelay::RelayKeyframeRequest(int origin, double now_ms) {
  double& last = last_pli_ms_[static_cast<std::size_t>(origin)];
  if (now_ms - last < net::kKeyframeRequestThrottleMs) return;
  last = now_ms;
  ++stats_.pli_relays;
  const Dest& dest =
      dests_[static_cast<std::size_t>(
          region_of_[static_cast<std::size_t>(origin)])];
  if (dest.to_edge == nullptr) return;
  SfuActor* sfu = dest.sfu;
  dest.to_edge->Send(now_ms, options_.relay_hop_delay_ms,
                     [sfu, origin](double t) {
                       sfu->RequestOriginKeyframe(origin, t);
                     });
}

}  // namespace livo::conference
