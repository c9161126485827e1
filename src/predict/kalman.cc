#include "predict/kalman.h"

#include <cmath>

namespace livo::predict {
namespace {

// Acceleration spectral density of the constant-velocity model, and the
// headset's position (m^2) and orientation (rad^2) tracking variances.
constexpr double kProcessNoise = 4.0;
constexpr double kPositionMeasNoise = 1e-4;
constexpr double kAngleMeasNoise = 3e-4;

// Wraps an angle difference into (-pi, pi].
double WrapDelta(double delta) {
  while (delta > geom::kPi) delta -= 2.0 * geom::kPi;
  while (delta <= -geom::kPi) delta += 2.0 * geom::kPi;
  return delta;
}

}  // namespace

void ScalarKalman::Reset(double value) {
  value_ = value;
  velocity_ = 0.0;
  p00_ = 1.0;
  p01_ = 0.0;
  p11_ = 1.0;
  initialized_ = true;
}

void ScalarKalman::Observe(double measurement, double dt_s,
                           double process_noise, double meas_noise) {
  if (!initialized_) {
    Reset(measurement);
    return;
  }
  // Predict step: x' = F x with F = [[1 dt][0 1]]; Q from a white-noise
  // acceleration model.
  const double dt = dt_s;
  value_ += velocity_ * dt;
  const double dt2 = dt * dt, dt3 = dt2 * dt, dt4 = dt2 * dt2;
  const double q = process_noise;
  double n00 = p00_ + 2 * dt * p01_ + dt2 * p11_ + q * dt4 / 4.0;
  double n01 = p01_ + dt * p11_ + q * dt3 / 2.0;
  double n11 = p11_ + q * dt2;

  // Update step with measurement of the value only: H = [1 0].
  const double s = n00 + meas_noise;
  const double k0 = n00 / s;
  const double k1 = n01 / s;
  const double innovation = measurement - value_;
  value_ += k0 * innovation;
  velocity_ += k1 * innovation;
  p00_ = (1.0 - k0) * n00;
  p01_ = (1.0 - k0) * n01;
  p11_ = n11 - k1 * n01;
}

void PoseKalmanFilter::Observe(const geom::TimedPose& sample) {
  const geom::EulerAngles euler = sample.pose.ToEuler();
  const double angles[3] = {euler.yaw, euler.pitch, euler.roll};

  double dt_s = 1.0 / 30.0;
  if (initialized_) {
    dt_s = std::max(1e-4, (sample.time_ms - last_time_ms_) / 1000.0);
    for (std::size_t i = 0; i < 3; ++i) {
      unwrapped_[i] += WrapDelta(angles[i] - last_wrapped_[i]);
    }
  } else {
    for (std::size_t i = 0; i < 3; ++i) unwrapped_[i] = angles[i];
  }
  for (std::size_t i = 0; i < 3; ++i) last_wrapped_[i] = angles[i];

  const double values[6] = {sample.pose.position.x, sample.pose.position.y,
                            sample.pose.position.z, unwrapped_[0],
                            unwrapped_[1], unwrapped_[2]};
  for (int i = 0; i < 6; ++i) {
    const double meas_noise = i < 3 ? kPositionMeasNoise : kAngleMeasNoise;
    dims_[static_cast<std::size_t>(i)].Observe(values[i], dt_s, kProcessNoise,
                                               meas_noise);
  }
  last_time_ms_ = sample.time_ms;
  initialized_ = true;
}

geom::Pose PoseKalmanFilter::PredictAhead(double horizon_ms) const {
  const double dt_s = horizon_ms / 1000.0;
  geom::Pose pose;
  pose.position = {dims_[0].PredictAt(dt_s), dims_[1].PredictAt(dt_s),
                   dims_[2].PredictAt(dt_s)};
  const geom::EulerAngles euler{dims_[3].PredictAt(dt_s),
                                dims_[4].PredictAt(dt_s),
                                dims_[5].PredictAt(dt_s)};
  pose.orientation = geom::Quat::FromEuler(euler.yaw, euler.pitch, euler.roll);
  return pose;
}

}  // namespace livo::predict
