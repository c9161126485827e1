#include "conference/allocator.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "fec/fec.h"
#include "obs/metrics.h"

namespace livo::conference {
namespace {

// Sustained-price EMA: weight of the newest P ladder, and the share of the
// first keyframe ladder's bytes that seeds the average.
constexpr double kEmaAlpha = 0.2;
constexpr double kKeyframeSeedScale = 0.25;

}  // namespace

AllocatorConfig MakeAllocatorConfig(const ConferenceOptions& options,
                                    int parties) {
  AllocatorConfig config;
  config.layers = EffectiveLadderLayers(options, parties);
  // Token buckets price the FEC parity that will ride each forwarded
  // pair, planned from the downlink's mean loss rate (the per-stream
  // redundancy tracks the live estimate; the planner only needs the
  // stationary envelope).
  const net::LinkConfig& downlink =
      options.downlink_mode == LinkMode::kShared
          ? options.shared_downlink_config
          : options.downlink_channel.link;
  config.parity_overhead =
      fec::PlanningOverhead(options.fec, net::MeanLossRate(downlink));
  return config;
}

LadderPricer::LadderPricer(int origins, int layers)
    : ema_(static_cast<std::size_t>(origins),
           std::vector<double>(static_cast<std::size_t>(layers), 0.0)) {}

void LadderPricer::Price(int origin, bool key_pair,
                         double capture_interval_ms,
                         std::vector<LayerPairBytes>& candidates) {
  std::vector<double>& ema = ema_[static_cast<std::size_t>(origin)];
  const double pairs_per_interval =
      capture_interval_ms > 0.0 ? kAllocationIntervalMs / capture_interval_ms
                                : 0.0;
  for (std::size_t q = 0; q < candidates.size() && q < ema.size(); ++q) {
    LayerPairBytes& c = candidates[q];
    if (!c.valid) continue;
    const auto bytes = static_cast<double>(c.color_bytes + c.depth_bytes);
    double& avg = ema[q];
    if (key_pair) {
      if (avg <= 0.0) avg = kKeyframeSeedScale * bytes;
    } else {
      avg = avg <= 0.0 ? bytes : (1.0 - kEmaAlpha) * avg + kEmaAlpha * bytes;
    }
    c.sustained_interval_bytes = avg * pairs_per_interval;
  }
}

DownlinkAllocator::DownlinkAllocator(int participants,
                                     const AllocatorConfig& config)
    : config_(config), slots_(std::max(0, participants - 1)) {
  subscribers_.resize(static_cast<std::size_t>(std::max(0, participants)));
  for (Subscriber& sub : subscribers_) {
    sub.forwarded_by_layer.assign(
        static_cast<std::size_t>(std::max(1, config_.layers)), 0);
    sub.shares.assign(static_cast<std::size_t>(slots_), 0.0);
    sub.color_credit.assign(static_cast<std::size_t>(slots_), 0.0);
    sub.depth_credit.assign(static_cast<std::size_t>(slots_), 0.0);
    sub.split.assign(static_cast<std::size_t>(slots_),
                     core::SplitController());
    sub.current_layer.assign(static_cast<std::size_t>(slots_), -1);
  }
}

std::vector<double> DownlinkAllocator::NormalizeShares(
    const std::vector<double>& visibility) const {
  std::vector<double> shares(static_cast<std::size_t>(slots_), 0.0);
  if (slots_ == 0) return shares;
  const double equal = 1.0 / slots_;
  // Clamp the floor so the floors always leave room to distribute by
  // visibility. The cap is *half* the equal share, not the equal share:
  // at N-1 >= 1/kShareFloor slots a floor of `equal` would consume the
  // whole budget and collapse every share to uniform no matter what the
  // viewer looks at — with the 0.5 cap at least half the budget always
  // follows visibility, so distinct visible fractions keep distinct
  // shares at any party count.
  const double floor = std::min(kShareFloor, 0.5 * equal);
  const double total =
      std::accumulate(visibility.begin(), visibility.end(), 0.0);
  const double spread = 1.0 - floor * slots_;
  for (int s = 0; s < slots_; ++s) {
    const double w =
        total > 0.0 ? visibility[static_cast<std::size_t>(s)] / total : equal;
    shares[static_cast<std::size_t>(s)] = floor + spread * w;
  }
  return shares;
}

void DownlinkAllocator::CloseInterval(int subscriber) {
  Subscriber& sub = subscribers_[static_cast<std::size_t>(subscriber)];
  if (sub.interval_start_ms < 0.0) return;
  AllocationAuditRow row;
  row.start_ms = sub.interval_start_ms;
  row.subscriber = subscriber;
  row.budget_bytes = sub.budget_bytes;
  row.credit_bytes = sub.credit_at_start;
  row.forwarded_bytes = sub.forwarded_bytes;
  row.shares = sub.shares;
  row.forwarded_by_layer = sub.forwarded_by_layer;
  audits_.push_back(std::move(row));
}

void DownlinkAllocator::BeginInterval(int subscriber, double start_ms,
                                      double budget_bytes,
                                      const std::vector<double>& visibility) {
  CloseInterval(subscriber);
  Subscriber& sub = subscribers_[static_cast<std::size_t>(subscriber)];
  sub.interval_start_ms = start_ms;
  sub.budget_bytes = std::max(0.0, budget_bytes);
  sub.forwarded_bytes = 0.0;
  std::fill(sub.forwarded_by_layer.begin(), sub.forwarded_by_layer.end(),
            std::size_t{0});
  sub.credit_at_start = std::accumulate(sub.color_credit.begin(),
                                        sub.color_credit.end(), 0.0) +
                        std::accumulate(sub.depth_credit.begin(),
                                        sub.depth_credit.end(), 0.0);
  sub.shares = NormalizeShares(visibility);
  const double cap_factor = 1.0 + std::max(0.0, config_.burst_credit_intervals);
  for (int s = 0; s < slots_; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const double split = sub.split[i].split();
    const double depth_refill = sub.budget_bytes * sub.shares[i] * split;
    const double color_refill =
        sub.budget_bytes * sub.shares[i] * (1.0 - split);
    sub.color_credit[i] =
        std::min(sub.color_credit[i] + color_refill, cap_factor * color_refill);
    sub.depth_credit[i] =
        std::min(sub.depth_credit[i] + depth_refill, cap_factor * depth_refill);
  }
  if (obs::TimeSeriesEnabled()) {
    // Cold path (one lookup per slot per allocation interval, ~10 Hz):
    // per-slot share and post-refill token-bucket level.
    obs::Registry& reg = obs::Registry::Get();
    const std::string prefix =
        "conference.sub" + std::to_string(subscriber) + ".slot";
    for (int s = 0; s < slots_; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const std::string slot_prefix = prefix + std::to_string(s);
      reg.GetTimeSeries(slot_prefix + ".share")
          .Sample(start_ms, sub.shares[i]);
      reg.GetTimeSeries(slot_prefix + ".bucket_bytes")
          .Sample(start_ms, sub.color_credit[i] + sub.depth_credit[i]);
    }
  }
}

bool DownlinkAllocator::DebitPair(Subscriber& sub, std::size_t slot, int q,
                                  const LayerPairBytes& layer) {
  const std::size_t i = slot;
  const auto media_color = static_cast<double>(layer.color_bytes);
  const auto media_depth = static_cast<double>(layer.depth_bytes);
  // FEC surcharge: the buckets pay for the parity packets that ride this
  // pair, but forwarded_bytes (audited against the ledger's media hops)
  // records media only.
  const double po = 1.0 + std::max(0.0, config_.parity_overhead);
  const double color = media_color * po;
  const double depth = media_depth * po;
  // Pooled: each half spends its own bucket first and borrows only its
  // shortfall. Draining one bucket wholesale would zero it for every pair
  // left in the interval even when the sibling holds plenty of credit,
  // and bouncing a pair off one starved half while the sibling holds
  // credit would cost a PLI round-trip for nothing.
  if (color + depth > sub.color_credit[i] + sub.depth_credit[i]) {
    return false;
  }
  const double color_own = std::min(color, sub.color_credit[i]);
  sub.color_credit[i] -= color_own;
  sub.depth_credit[i] -= color - color_own;  // fits: pair <= cc + dc
  const double depth_own = std::min(depth, sub.depth_credit[i]);
  sub.depth_credit[i] -= depth_own;
  sub.color_credit[i] -= depth - depth_own;
  sub.forwarded_bytes += media_color + media_depth;
  if (static_cast<std::size_t>(q) < sub.forwarded_by_layer.size()) {
    ++sub.forwarded_by_layer[static_cast<std::size_t>(q)];
  }
  return true;
}

int DownlinkAllocator::Admit(int subscriber, int slot, bool key_pair,
                             const std::vector<LayerPairBytes>& candidates) {
  Subscriber& sub = subscribers_[static_cast<std::size_t>(subscriber)];
  int& current = sub.current_layer[static_cast<std::size_t>(slot)];
  if (key_pair) {
    const int chosen = TryForwardLayered(subscriber, slot, true, candidates);
    if (chosen < 0) return kOverBudget;
    current = chosen;
    return chosen;
  }
  if (current < 0 ||
      !candidates[static_cast<std::size_t>(current)].valid) {
    return kNoCurrentLayer;
  }
  if (sub.interval_start_ms < 0.0) return current;  // downlink still unknown
  return DebitPair(sub, static_cast<std::size_t>(slot), current,
                   candidates[static_cast<std::size_t>(current)])
             ? current
             : kOverBudget;
}

int DownlinkAllocator::CurrentLayer(int subscriber, int slot) const {
  return subscribers_[static_cast<std::size_t>(subscriber)]
      .current_layer[static_cast<std::size_t>(slot)];
}

int DownlinkAllocator::TryForwardLayered(
    int subscriber, int slot, bool keyframe,
    const std::vector<LayerPairBytes>& layers) {
  Subscriber& sub = subscribers_[static_cast<std::size_t>(subscriber)];
  if (sub.interval_start_ms < 0.0) {
    // Downlink still unknown: pass the best available layer undebited.
    for (int q = static_cast<int>(layers.size()) - 1; q >= 0; --q) {
      if (layers[static_cast<std::size_t>(q)].valid) return q;
    }
    return -1;
  }
  int cheapest = -1;
  for (std::size_t q = 0; q < layers.size(); ++q) {
    if (layers[q].valid) {
      cheapest = static_cast<int>(q);
      break;
    }
  }
  const double refill =
      sub.budget_bytes * (slot < static_cast<int>(sub.shares.size())
                              ? sub.shares[static_cast<std::size_t>(slot)]
                              : 0.0);
  const double credit = sub.color_credit[static_cast<std::size_t>(slot)] +
                        sub.depth_credit[static_cast<std::size_t>(slot)];
  // Top-down: the first layer the buckets can pay for is by construction
  // the best quality this interval affords; every cheaper layer below it
  // would also fit, so the walk is monotone in the budget. Keyframes
  // additionally require the layer to be sustainable (see header), on
  // both horizons: the steady-state rate must fit the per-interval
  // refill, and the credit left after paying this key must carry an
  // interval's worth of the layer's P-pairs — else the anchor starves
  // mid-interval and the stream cascades into drop -> PLI -> await-key.
  // The cheapest valid layer is exempt.
  for (int q = static_cast<int>(layers.size()) - 1; q >= 0; --q) {
    const LayerPairBytes& layer = layers[static_cast<std::size_t>(q)];
    if (!layer.valid) continue;
    if (keyframe && q != cheapest) {
      // Sustainability is judged at wire cost: media plus its parity
      // surcharge, on both the key itself and the steady-state rate.
      const double po = 1.0 + std::max(0.0, config_.parity_overhead);
      const double key_cost = po * (static_cast<double>(layer.color_bytes) +
                                    static_cast<double>(layer.depth_bytes));
      const double sustained = po * layer.sustained_interval_bytes;
      if (sustained > refill || credit - key_cost < sustained) {
        continue;
      }
    }
    if (DebitPair(sub, static_cast<std::size_t>(slot), q, layer)) return q;
  }
  return -1;
}

void DownlinkAllocator::ObserveProbe(int subscriber, int slot,
                                     double rmse_depth, double rmse_color) {
  subscribers_[static_cast<std::size_t>(subscriber)]
      .split[static_cast<std::size_t>(slot)]
      .Update(rmse_depth, rmse_color);
}

double DownlinkAllocator::ShareOf(int subscriber, int slot) const {
  const Subscriber& sub = subscribers_[static_cast<std::size_t>(subscriber)];
  if (sub.interval_start_ms < 0.0) return 0.0;
  return sub.shares[static_cast<std::size_t>(slot)];
}

double DownlinkAllocator::SplitOf(int subscriber, int slot) const {
  return subscribers_[static_cast<std::size_t>(subscriber)]
      .split[static_cast<std::size_t>(slot)]
      .split();
}

bool DownlinkAllocator::Initialized(int subscriber) const {
  return subscribers_[static_cast<std::size_t>(subscriber)].interval_start_ms >=
         0.0;
}

std::vector<AllocationAuditRow> DownlinkAllocator::TakeAudits() {
  for (std::size_t s = 0; s < subscribers_.size(); ++s) {
    CloseInterval(static_cast<int>(s));
    subscribers_[s].interval_start_ms = -1.0;
  }
  return std::move(audits_);
}

}  // namespace livo::conference
