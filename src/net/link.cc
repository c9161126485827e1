#include "net/link.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace livo::net {
namespace {

// Gilbert–Elliott chain: per-packet probabilities of leaving the good and
// the bad state, and the drop probability in the bad state.
constexpr double kGePGoodBad = 0.02;
constexpr double kGePBadGood = 0.25;
constexpr double kGeBadLoss = 0.5;

struct LinkMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& packets_dropped = reg.GetCounter("link.packets_dropped");
  obs::Counter& packets_delivered = reg.GetCounter("link.packets_delivered");
  obs::Gauge& queue_delay_ms = reg.GetGauge("link.queue_delay_ms");
};

LinkMetrics& Metrics() {
  static LinkMetrics metrics;
  return metrics;
}

}  // namespace

double MeanLossRate(const LinkConfig& config) {
  if (config.loss_model == LossModel::kIid) return config.loss_rate;
  // Stationary distribution of the two-state chain.
  const double pi_bad = kGePGoodBad / (kGePGoodBad + kGePBadGood);
  return (1.0 - pi_bad) * config.loss_rate + pi_bad * kGeBadLoss;
}

LinkEmulator::LinkEmulator(sim::BandwidthTrace trace, const LinkConfig& config)
    : trace_(std::move(trace)), config_(config), rng_(config.seed) {}

bool LinkEmulator::DrawLoss() {
  if (config_.loss_model == LossModel::kIid) {
    // The single-draw iid path is kept byte-for-byte: existing seeds must
    // replay the exact historical loss pattern.
    return rng_.Chance(config_.loss_rate);
  }
  // Gilbert–Elliott: advance the chain once per packet, then draw the
  // current state's loss probability — two draws per packet, always, so
  // the RNG stream stays aligned regardless of outcomes.
  const bool transition =
      rng_.Chance(ge_bad_ ? kGePBadGood : kGePGoodBad);
  if (transition) ge_bad_ = !ge_bad_;
  return rng_.Chance(ge_bad_ ? kGeBadLoss : config_.loss_rate);
}

double LinkEmulator::CapacityBitsPerMs(double now_ms) const {
  // Mbps -> bits per millisecond is a factor of 1000.
  return trace_.AtMs(now_ms) * config_.bandwidth_scale * 1000.0;
}

double LinkEmulator::CurrentQueueDelayMs(double now_ms) const {
  return std::max(0.0, next_free_ms_ - now_ms);
}

bool LinkEmulator::Send(Packet packet, double now_ms) {
  if (DrawLoss()) {
    ++packets_dropped_;
    Metrics().packets_dropped.Add();
    obs::TraceInstant("link.random_loss");
    return false;
  }
  const double start = std::max(now_ms, next_free_ms_);
  if (start - now_ms > config_.max_queue_delay_ms) {
    ++packets_dropped_;  // drop-tail: the queue already holds too much delay
    Metrics().packets_dropped.Add();
    obs::TraceInstant("link.drop_tail");
    return false;
  }
  Metrics().queue_delay_ms.Set(start - now_ms);
  const double capacity = std::max(1.0, CapacityBitsPerMs(start));
  const double serialize_ms =
      static_cast<double>(packet.WireBytes()) * 8.0 / capacity;
  next_free_ms_ = start + serialize_ms;

  packet.send_time_ms = now_ms;
  InFlight entry;
  entry.arrival_ms = next_free_ms_ + config_.propagation_delay_ms;
  entry.packet = packet;
  in_flight_.push_back(entry);
  ++packets_sent_;
  return true;
}

double LinkEmulator::NextEventTimeMs() const {
  return in_flight_.empty() ? std::numeric_limits<double>::infinity()
                            : in_flight_.front().arrival_ms;
}

std::vector<Packet> LinkEmulator::Poll(double now_ms) {
  std::vector<Packet> delivered;
  while (!in_flight_.empty() && in_flight_.front().arrival_ms <= now_ms) {
    Packet p = in_flight_.front().packet;
    p.arrival_time_ms = in_flight_.front().arrival_ms;
    delivered.push_back(p);
    in_flight_.pop_front();
  }
  if (!delivered.empty()) {
    Metrics().packets_delivered.Add(delivered.size());
  }
  return delivered;
}

}  // namespace livo::net
