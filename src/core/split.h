// Adaptive bandwidth splitting between depth and color streams (§3.3).
//
// "LiVo must determine the bandwidth split s: the fraction of available
// bandwidth allocated to the depth stream such that depth and color errors
// are the same... It finds the optimal split using multi-dimensional line
// search. This process additively increases or decreases s. If
// RMSE_d - RMSE_c > eps, then s increases by delta (the step size). Else,
// s decreases by delta... We have empirically chosen a step size of 0.005...
// We also choose 0.5 <= s <= 0.9."
//
// RMSEs are in the streams' native sample units (16-bit depth codes vs
// 8-bit color codes) exactly as measured by the sender's encode+decode
// probe; driving the raw errors to equality inherently weights depth ~256x
// more per unit of physical range, matching human depth sensitivity.
// The probe runs every k frames (k = 3, "chosen empirically") to bound
// compute (§3.3).
#pragma once

namespace livo::core {

struct SplitConfig {
  double initial = 0.7;     // s_i (can be profiled per deployment, §3.3)
  double min = 0.5;         // depth never gets less than color
  double max = 0.9;         // protects color quality at low bandwidth
  double epsilon = 2.0;     // RMSE dead-band
  int update_every = 3;     // k: probe cadence in frames
};

class SplitController {
 public:
  explicit SplitController(const SplitConfig& config = {})
      : config_(config), split_(config.initial) {}

  // Current fraction of the available bandwidth given to depth.
  double split() const { return split_; }

  // True if the sender should run the RMSE probe on this frame.
  bool ShouldProbe(long frame_index) const {
    return config_.update_every <= 1 ||
           frame_index % config_.update_every == 0;
  }

  // Consumes one probe result and takes a line-search step.
  void Update(double rmse_depth, double rmse_color);

  const SplitConfig& config() const { return config_; }
  long updates() const { return updates_; }

 private:
  SplitConfig config_;
  double split_;
  long updates_ = 0;
};

}  // namespace livo::core
