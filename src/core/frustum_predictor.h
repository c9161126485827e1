// Sender-side frustum prediction (§3.4).
//
// "When culling a frame at time t, LiVo's sender must predict the
// receiver's frustum at t + dt, where dt is the one-way delay from sender
// to receiver... LiVo obtains dt by halving a smoothed application-level
// RTT estimate... To counter [prediction errors], LiVo expands the
// predicted frustum by a guard-band (20 cm is the sweet spot)."
#pragma once

#include "geom/frustum.h"
#include "predict/kalman.h"
#include "util/clock.h"

namespace livo::core {

// Guard band the predicted frustum grows by (§3.4 / Fig 15).
inline constexpr double kGuardBandM = 0.20;

struct FrustumPredictorConfig {
  geom::FrustumParams viewer;       // headset optics, exchanged at setup
};

class FrustumPredictor {
 public:
  explicit FrustumPredictor(const FrustumPredictorConfig& config = {})
      : config_(config) {}

  // Receiver pose feedback (arrives over the back channel).
  void ObservePose(const geom::TimedPose& sample) { filter_.Observe(sample); }

  // Smoothed application-level RTT samples from the transport.
  void ObserveRtt(double rtt_ms) { rtt_ms_.Add(rtt_ms); }

  double HorizonMs() const {
    return rtt_ms_.initialized() ? rtt_ms_.value() / 2.0 : 50.0;
  }

  bool ready() const { return filter_.initialized(); }

  // The guard-band-expanded frustum the sender culls against.
  geom::Frustum PredictFrustum() const {
    const geom::Pose pose = filter_.PredictAhead(HorizonMs());
    return geom::Frustum(pose, config_.viewer).Expanded(kGuardBandM);
  }

  // Un-expanded prediction (for accuracy evaluation, Fig 15/16).
  geom::Pose PredictPose() const { return filter_.PredictAhead(HorizonMs()); }

  const FrustumPredictorConfig& config() const { return config_; }

 private:
  FrustumPredictorConfig config_;
  predict::PoseKalmanFilter filter_;
  util::Ewma rtt_ms_{0.125};
};

}  // namespace livo::core
