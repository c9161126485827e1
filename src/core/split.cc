#include "core/split.h"

#include <algorithm>
#include <cmath>

namespace livo::core {
namespace {

constexpr double kStep = 0.005;  // delta, the line-search step (§3.3)

}  // namespace

void SplitController::Update(double rmse_depth, double rmse_color) {
  ++updates_;
  const double diff = rmse_depth - rmse_color;
  if (std::abs(diff) <= config_.epsilon) return;  // balanced: hold
  if (diff > 0.0) {
    split_ += kStep;   // depth worse: give depth more bandwidth
  } else {
    split_ -= kStep;   // color worse: give some back
  }
  split_ = std::clamp(split_, config_.min, config_.max);
}

}  // namespace livo::core
