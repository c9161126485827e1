// Unit tests for livo::predict — Kalman pose filter and MLP predictor.
#include <gtest/gtest.h>

#include "predict/kalman.h"
#include "predict/mlp.h"
#include "sim/usertrace.h"

namespace livo::predict {
namespace {

using geom::Pose;
using geom::TimedPose;
using geom::Vec3;

TEST(ScalarKalman, ConvergesToConstant) {
  ScalarKalman filter;
  for (int i = 0; i < 50; ++i) filter.Observe(5.0, 1.0 / 30, 4.0, 1e-4);
  EXPECT_NEAR(filter.value(), 5.0, 1e-3);
  EXPECT_NEAR(filter.velocity(), 0.0, 1e-2);
}

TEST(ScalarKalman, TracksConstantVelocity) {
  ScalarKalman filter;
  const double dt = 1.0 / 30;
  for (int i = 0; i < 90; ++i) filter.Observe(0.5 * i * dt, dt, 4.0, 1e-4);
  EXPECT_NEAR(filter.velocity(), 0.5, 0.02);
  // Extrapolation half a second out.
  EXPECT_NEAR(filter.PredictAt(0.5), 0.5 * 89 * dt + 0.25, 0.05);
}

TEST(PoseKalman, PredictsLinearWalk) {
  PoseKalmanFilter filter;
  // Walk +x at 1 m/s while looking forward.
  for (int i = 0; i < 60; ++i) {
    TimedPose tp;
    tp.time_ms = i * 33.333;
    tp.pose.position = {i * 0.0333, 1.6, 0.0};
    filter.Observe(tp);
  }
  const Pose predicted = filter.PredictAhead(100.0);  // 100 ms ahead
  EXPECT_NEAR(predicted.position.x, 59 * 0.0333 + 0.1, 0.02);
  EXPECT_NEAR(predicted.position.y, 1.6, 0.01);
}

TEST(PoseKalman, PredictsRotation) {
  PoseKalmanFilter filter;
  // Turn at 1 rad/s about Y.
  for (int i = 0; i < 60; ++i) {
    TimedPose tp;
    tp.time_ms = i * 33.333;
    tp.pose = Pose::FromEuler({0, 1.6, 0}, {i * 0.0333, 0, 0});
    filter.Observe(tp);
  }
  const Pose predicted = filter.PredictAhead(200.0);
  const geom::EulerAngles euler = predicted.ToEuler();
  EXPECT_NEAR(euler.yaw, 59 * 0.0333 + 0.2, 0.05);
}

TEST(PoseKalman, HandlesYawWraparound) {
  PoseKalmanFilter filter;
  // Rotate through the +-pi seam at constant rate.
  for (int i = 0; i < 90; ++i) {
    const double yaw = 3.0 + i * 0.02;  // crosses pi ~ frame 7
    TimedPose tp;
    tp.time_ms = i * 33.333;
    tp.pose = Pose::FromEuler({0, 1.6, 0}, {yaw, 0, 0});
    filter.Observe(tp);
  }
  // Prediction continues smoothly past the seam (angular error small).
  const Pose predicted = filter.PredictAhead(100.0);
  const geom::Quat expected =
      geom::Quat::FromEuler(3.0 + 89 * 0.02 + 0.06, 0, 0);
  EXPECT_LT(predicted.orientation.AngleTo(expected), 0.05);
}

TEST(PoseKalman, ShortHorizonBeatsLongHorizon) {
  // Prediction error grows with the horizon -- the property that makes
  // conferencing's short horizon "cheap and accurate" (§3.4).
  const auto trace = sim::GenerateUserTrace("band2", sim::TraceStyle::kWalkIn, 400);
  const PredictionError short_h = EvaluateKalman({trace}, 66.0);
  const PredictionError long_h = EvaluateKalman({trace}, 700.0);
  EXPECT_LT(short_h.position_m, long_h.position_m);
  EXPECT_LT(short_h.position_m, 0.08);  // conferencing-scale accuracy
}

TEST(Mlp, LearnsLinearMap) {
  Mlp net({2, 8, 1}, 3);
  util::Rng rng(4);
  for (int step = 0; step < 4000; ++step) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    net.TrainStep({a, b}, {0.3 * a - 0.5 * b}, 0.05);
  }
  const double out = net.Forward({0.5, -0.2})[0];
  EXPECT_NEAR(out, 0.3 * 0.5 + 0.5 * 0.2, 0.05);
}

TEST(Mlp, DeterministicInit) {
  Mlp a({4, 8, 2}, 7), b({4, 8, 2}, 7);
  const std::vector<double> input{0.1, -0.2, 0.3, 0.4};
  EXPECT_EQ(a.Forward(input), b.Forward(input));
}

TEST(Mlp, RejectsTooFewLayers) {
  EXPECT_THROW(Mlp({5}, 1), std::invalid_argument);
}

TEST(MlpPosePredictor, TrainingReducesError) {
  const auto traces = sim::StandardTraces("office1", 300);
  MlpPredictorConfig config;
  config.hidden_units = 32;
  config.epochs = 10;
  MlpPosePredictor untrained(config);
  MlpPosePredictor trained(config);
  trained.Train(traces);
  const auto eval = sim::StandardTraces("office1", 300);
  const PredictionError before = EvaluateMlp(untrained, eval);
  const PredictionError after = EvaluateMlp(trained, eval);
  EXPECT_LT(after.position_m, before.position_m);
  // Pinned at capture: the input window, horizon, depth, learning rate and
  // seed of the network all move both errors. The tolerance absorbs
  // last-bit differences of std::tanh between math libraries.
  constexpr double kPositionM = 0x1.da344941fd1e5p-6;
  constexpr double kRotationDeg = 0x1.558137594cdbep+0;
  EXPECT_NEAR(after.position_m, kPositionM, 1e-6 * kPositionM)
      << std::hexfloat << after.position_m;
  EXPECT_NEAR(after.rotation_deg, kRotationDeg, 1e-6 * kRotationDeg)
      << std::hexfloat << after.rotation_deg;
}

TEST(MlpPosePredictor, WiderBeatsNarrowOnHeldOut) {
  // The Fig 16 property: a 3-unit MLP cannot model 6-DoF motion.
  std::vector<sim::UserTrace> train;
  for (const char* v : {"office1", "pizza1"}) {
    for (auto& t : sim::StandardTraces(v, 240)) train.push_back(t);
  }
  const auto eval = sim::StandardTraces("band2", 240);

  MlpPredictorConfig narrow_cfg;
  narrow_cfg.hidden_units = 3;
  narrow_cfg.epochs = 10;
  MlpPredictorConfig wide_cfg = narrow_cfg;
  wide_cfg.hidden_units = 48;

  MlpPosePredictor narrow(narrow_cfg), wide(wide_cfg);
  narrow.Train(train);
  wide.Train(train);
  EXPECT_LT(EvaluateMlp(wide, eval).position_m,
            EvaluateMlp(narrow, eval).position_m);
}

TEST(MlpPosePredictor, FallsBackGracefullyWithShortHistory) {
  MlpPredictorConfig config;
  MlpPosePredictor predictor(config);
  EXPECT_TRUE(geom::AlmostEqual(predictor.Predict({}).position, {0, 0, 0}));
  TimedPose one;
  one.pose.position = {1, 2, 3};
  EXPECT_TRUE(geom::AlmostEqual(predictor.Predict({one}).position, {1, 2, 3}));
}

}  // namespace
}  // namespace livo::predict
