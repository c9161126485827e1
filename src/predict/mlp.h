// Learned pose predictor baseline (Fig 16).
//
// The paper evaluates whether "an MLP with 3 hidden layers used in ViVo
// could learn effectively from a small number of our traces" and finds it
// needs 64 hidden units to approach the Kalman filter. This module
// implements that baseline: a fully-connected network mapping a window of
// recent pose deltas to the pose delta at the prediction horizon, trained
// by mini-batch SGD on user traces.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/pose.h"
#include "sim/usertrace.h"
#include "util/rng.h"

namespace livo::predict {

// Generic dense feedforward network with tanh hidden activations and a
// linear output layer, trained with SGD on mean squared error.
class Mlp {
 public:
  // layer_sizes: {input, hidden..., output}.
  Mlp(std::vector<int> layer_sizes, std::uint64_t seed = 1);

  std::vector<double> Forward(const std::vector<double>& input) const;

  // One SGD step on a single (input, target) pair; returns the sample loss.
  double TrainStep(const std::vector<double>& input,
                   const std::vector<double>& target, double learning_rate);

  int input_size() const { return layers_.front().inputs; }
  int output_size() const { return layers_.back().outputs; }

 private:
  struct Layer {
    int inputs = 0;
    int outputs = 0;
    std::vector<double> weights;  // outputs x inputs, row-major
    std::vector<double> bias;
  };

  std::vector<Layer> layers_;
};

// The predictor feeds the last 5 poses to 3 hidden layers ("MLP with 3
// hidden layers used in ViVo") and predicts 100 ms ahead.
struct MlpPredictorConfig {
  int hidden_units = 32;
  int epochs = 30;
};

// Per-trace pose predictor: trained on whole traces, queried per frame.
class MlpPosePredictor {
 public:
  explicit MlpPosePredictor(const MlpPredictorConfig& config);

  // Trains on the given traces (e.g. traces from other videos/users --
  // the paper's point is that few traces generalize poorly).
  void Train(const std::vector<sim::UserTrace>& traces);

  // Predicts the pose 100 ms after the last of `recent` poses, which must
  // contain at least 5 samples at the trace frame rate.
  geom::Pose Predict(const std::vector<geom::TimedPose>& recent) const;

 private:
  std::vector<double> Featurize(const std::vector<geom::TimedPose>& recent,
                                std::size_t end_index) const;

  MlpPredictorConfig config_;
  Mlp net_;
};

// Evaluation helper (Fig 16): mean position error (m) and mean rotation
// error (deg) of a predictor across held-out traces.
struct PredictionError {
  double position_m = 0.0;
  double rotation_deg = 0.0;
};

PredictionError EvaluateMlp(const MlpPosePredictor& predictor,
                            const std::vector<sim::UserTrace>& traces);

PredictionError EvaluateKalman(const std::vector<sim::UserTrace>& traces,
                               double horizon_ms);

}  // namespace livo::predict
