#include "net/gcc.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/metrics.h"

namespace livo::net {
namespace {

// Multiplicative steps per feedback interval: up while the path is stable,
// down on sustained overuse.
constexpr double kIncreaseFactor = 1.045;
constexpr double kDecreaseFactor = 0.85;
// Smoothed delay trend (ms per interval) above which the path is overused.
constexpr double kOveruseGradientMs = 1.1;
// Interval loss above which the loss controller backs off, and below which
// the estimate may still increase.
constexpr double kLossDecreaseThreshold = 0.10;
constexpr double kLossIncreaseThreshold = 0.02;

struct GccMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& decreases = reg.GetCounter("gcc.decreases");
  obs::Gauge& estimate_bps = reg.GetGauge("gcc.estimate_bps");
  obs::Gauge& delivered_bps = reg.GetGauge("gcc.delivered_bps");
  obs::Gauge& smoothed_gradient_ms = reg.GetGauge("gcc.smoothed_gradient_ms");
};

GccMetrics& Metrics() {
  static GccMetrics metrics;
  return metrics;
}

}  // namespace

void GccEstimator::OnFeedback(const FeedbackReport& report) {
  const int total = report.received_packets + report.lost_packets;
  const double loss =
      total > 0 ? static_cast<double>(report.lost_packets) / total : 0.0;

  // Delivered throughput in the interval; the estimate should never exceed
  // ~1.5x of what the path demonstrably carried (standard GCC clamp).
  const double delivered_bps =
      report.interval_ms > 0.0
          ? report.received_bytes * 8.0 * 1000.0 / report.interval_ms
          : estimate_bps_;

  smoothed_gradient_ms_ =
      0.6 * smoothed_gradient_ms_ + 0.4 * report.delay_gradient_ms;

  // Loss-based controller takes precedence in heavy loss.
  if (loss > kLossDecreaseThreshold) {
    estimate_bps_ *= (1.0 - 0.5 * loss);
    state_ = State::kDecrease;
    Metrics().decreases.Add();
    LIVO_LOG(Debug) << "loss-based decrease: loss " << loss << ", estimate "
                    << estimate_bps_ / 1e6 << " Mbps";
  } else if (smoothed_gradient_ms_ > kOveruseGradientMs ||
             report.mean_delay_ms > 200.0) {
    // Overuse suspected. Real GCC's detector has hysteresis: act only on
    // sustained overuse (or outright queue blow-up), and not again within
    // a cool-down window, so one keyframe burst does not trigger repeated
    // multiplicative decreases.
    ++consecutive_overuse_;
    const bool severe = report.mean_delay_ms > 200.0;
    const bool cooled =
        report.time_ms - last_decrease_ms_ >= 3.0 * report.interval_ms;
    if ((consecutive_overuse_ >= 2 || severe) && cooled) {
      estimate_bps_ *= kDecreaseFactor;
      last_decrease_ms_ = report.time_ms;
      consecutive_overuse_ = 0;
      Metrics().decreases.Add();
      LIVO_LOG(Debug) << "delay-based decrease: gradient "
                      << smoothed_gradient_ms_ << " ms, estimate "
                      << estimate_bps_ / 1e6 << " Mbps";
    }
    state_ = State::kDecrease;
  } else if (loss < kLossIncreaseThreshold) {
    consecutive_overuse_ = 0;
    estimate_bps_ *= kIncreaseFactor;
    state_ = State::kIncrease;
  } else {
    state_ = State::kHold;
  }

  // Clamp against the demonstrated incoming rate only while backing off:
  // a video source in steady state intentionally sends slightly below the
  // estimate, so clamping in the increase state would deadlock the ramp.
  if (state_ == State::kDecrease && delivered_bps > 0.0 &&
      report.received_packets > 0) {
    estimate_bps_ = std::min(estimate_bps_, 1.5 * delivered_bps);
  }
  estimate_bps_ = std::clamp(estimate_bps_, config_.min_bps, config_.max_bps);

  GccMetrics& metrics = Metrics();
  metrics.estimate_bps.Set(estimate_bps_);
  metrics.delivered_bps.Set(delivered_bps);
  metrics.smoothed_gradient_ms.Set(smoothed_gradient_ms_);
}

}  // namespace livo::net
