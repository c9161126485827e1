// Google-Congestion-Control-style bandwidth estimation (§3.3 background:
// "2D video conferencing systems use a real-time transport protocol (e.g.,
// WebRTC) with rate-based congestion control (e.g., GCC). The sender feeds
// the available bandwidth from congestion control to a rate-adaptive video
// encoder").
//
// Simplified faithful model of Carlucci et al. (MMSys'16): a delay-based
// controller watches the one-way delay gradient — rising delays mean the
// bottleneck queue is filling, so back off multiplicatively; stable/falling
// delays allow a gentle multiplicative increase — combined with a
// loss-based controller that halves into heavy loss. The result tracks the
// available capacity from below, typically utilizing 80-95% of it.
#pragma once

#include "net/packet.h"

namespace livo::net {

struct GccConfig {
  double initial_bps = 2.0e6;
  double min_bps = 100e3;
  double max_bps = 400e6;
};

class GccEstimator {
 public:
  explicit GccEstimator(const GccConfig& config = {})
      : config_(config), estimate_bps_(config.initial_bps) {}

  // Consumes a receiver report and updates the estimate.
  void OnFeedback(const FeedbackReport& report);

  double EstimateBps() const { return estimate_bps_; }

  // State of the delay controller, exported for tests/telemetry.
  enum class State { kIncrease, kHold, kDecrease };
  State state() const { return state_; }

 private:
  GccConfig config_;
  double estimate_bps_;
  State state_ = State::kIncrease;
  double smoothed_gradient_ms_ = 0.0;
  int consecutive_overuse_ = 0;
  double last_decrease_ms_ = -1e9;
};

}  // namespace livo::net
