// 6-DoF pose prediction with a constant-velocity Kalman filter (§3.4).
//
// "LiVo predicts frustums by applying a Kalman Filter on the 6 dimensions
// of receiver pose (position and orientation)" following Gül et al. (MM'20).
// Each of the six dimensions (x, y, z, yaw, pitch, roll) runs an
// independent 2-state (value, velocity) filter; angles are unwrapped before
// filtering so predictions cross the +/-pi seam correctly.
#pragma once

#include <array>

#include "geom/pose.h"

namespace livo::predict {

// Scalar constant-velocity Kalman filter.
class ScalarKalman {
 public:
  void Reset(double value);
  void Observe(double value, double dt_s, double process_noise,
               double meas_noise);
  double PredictAt(double dt_s) const { return value_ + velocity_ * dt_s; }
  double value() const { return value_; }
  double velocity() const { return velocity_; }
  bool initialized() const { return initialized_; }

 private:
  bool initialized_ = false;
  double value_ = 0.0;
  double velocity_ = 0.0;
  // Covariance [[p00 p01][p01 p11]].
  double p00_ = 1.0, p01_ = 0.0, p11_ = 1.0;
};

class PoseKalmanFilter {
 public:
  // Feeds one timestamped pose observation (receiver feedback).
  void Observe(const geom::TimedPose& sample);

  // Extrapolates the pose `horizon_ms` past the last observation — the
  // sender's estimate of where the viewer will be when the frame arrives
  // (horizon = smoothed RTT / 2, §3.4).
  geom::Pose PredictAhead(double horizon_ms) const;

  bool initialized() const { return initialized_; }

 private:
  bool initialized_ = false;
  double last_time_ms_ = 0.0;
  // Dimensions: x, y, z, yaw, pitch, roll.
  std::array<ScalarKalman, 6> dims_;
  // Unwrapped angle accumulators (yaw, pitch, roll) and the last wrapped
  // observations they were advanced from.
  std::array<double, 3> unwrapped_{};
  std::array<double, 3> last_wrapped_{};
};

}  // namespace livo::predict
