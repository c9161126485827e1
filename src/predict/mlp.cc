#include "predict/mlp.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "predict/kalman.h"

namespace livo::predict {

Mlp::Mlp(std::vector<int> layer_sizes, std::uint64_t seed) {
  if (layer_sizes.size() < 2) {
    throw std::invalid_argument("Mlp needs at least input and output sizes");
  }
  util::Rng rng(seed);
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    Layer layer;
    layer.inputs = layer_sizes[i];
    layer.outputs = layer_sizes[i + 1];
    // Xavier-style init keeps tanh activations in their linear region.
    const double scale = std::sqrt(2.0 / (layer.inputs + layer.outputs));
    layer.weights.resize(static_cast<std::size_t>(layer.inputs) *
                         layer.outputs);
    for (double& w : layer.weights) w = rng.Gaussian(0.0, scale);
    layer.bias.assign(static_cast<std::size_t>(layer.outputs), 0.0);
    layers_.push_back(std::move(layer));
  }
}

std::vector<double> Mlp::Forward(const std::vector<double>& input) const {
  std::vector<double> activ = input;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    std::vector<double> next(static_cast<std::size_t>(layer.outputs));
    for (int o = 0; o < layer.outputs; ++o) {
      double sum = layer.bias[static_cast<std::size_t>(o)];
      const double* w =
          layer.weights.data() + static_cast<std::size_t>(o) * layer.inputs;
      for (int i = 0; i < layer.inputs; ++i) sum += w[i] * activ[static_cast<std::size_t>(i)];
      const bool last = li + 1 == layers_.size();
      next[static_cast<std::size_t>(o)] = last ? sum : std::tanh(sum);
    }
    activ = std::move(next);
  }
  return activ;
}

double Mlp::TrainStep(const std::vector<double>& input,
                      const std::vector<double>& target,
                      double learning_rate) {
  // Forward pass keeping activations.
  std::vector<std::vector<double>> activations{input};
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    std::vector<double> next(static_cast<std::size_t>(layer.outputs));
    const auto& prev = activations.back();
    for (int o = 0; o < layer.outputs; ++o) {
      double sum = layer.bias[static_cast<std::size_t>(o)];
      const double* w =
          layer.weights.data() + static_cast<std::size_t>(o) * layer.inputs;
      for (int i = 0; i < layer.inputs; ++i) sum += w[i] * prev[static_cast<std::size_t>(i)];
      const bool last = li + 1 == layers_.size();
      next[static_cast<std::size_t>(o)] = last ? sum : std::tanh(sum);
    }
    activations.push_back(std::move(next));
  }

  // Output error (MSE gradient) and loss.
  const auto& out = activations.back();
  std::vector<double> delta(out.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double err = out[i] - target[i];
    delta[i] = 2.0 * err / static_cast<double>(out.size());
    loss += err * err;
  }
  loss /= static_cast<double>(out.size());

  // Backward pass with immediate SGD updates.
  for (int li = static_cast<int>(layers_.size()) - 1; li >= 0; --li) {
    Layer& layer = layers_[static_cast<std::size_t>(li)];
    const auto& prev = activations[static_cast<std::size_t>(li)];
    std::vector<double> prev_delta(static_cast<std::size_t>(layer.inputs), 0.0);
    for (int o = 0; o < layer.outputs; ++o) {
      const double d = delta[static_cast<std::size_t>(o)];
      double* w =
          layer.weights.data() + static_cast<std::size_t>(o) * layer.inputs;
      for (int i = 0; i < layer.inputs; ++i) {
        prev_delta[static_cast<std::size_t>(i)] += w[i] * d;
        w[i] -= learning_rate * d * prev[static_cast<std::size_t>(i)];
      }
      layer.bias[static_cast<std::size_t>(o)] -= learning_rate * d;
    }
    if (li > 0) {
      // Through the tanh of the previous layer's output.
      const auto& act = activations[static_cast<std::size_t>(li)];
      for (std::size_t i = 0; i < prev_delta.size(); ++i) {
        prev_delta[i] *= 1.0 - act[i] * act[i];
      }
    }
    delta = std::move(prev_delta);
  }
  return loss;
}

namespace {

// Past poses fed as input, prediction lookahead, hidden depth, base
// learning rate and weight-initialisation seed.
constexpr int kWindow = 5;
constexpr double kHorizonMs = 100.0;
constexpr int kHiddenLayers = 3;
constexpr double kLearningRate = 0.02;
constexpr std::uint64_t kSeed = 17;

// Six pose coordinates used as features/targets.
std::array<double, 6> PoseVector(const geom::Pose& pose) {
  const geom::EulerAngles e = pose.ToEuler();
  return {pose.position.x, pose.position.y, pose.position.z,
          e.yaw, e.pitch, e.roll};
}

}  // namespace

MlpPosePredictor::MlpPosePredictor(const MlpPredictorConfig& config)
    : config_(config),
      net_([&] {
        std::vector<int> sizes{kWindow * 6};
        for (int i = 0; i < kHiddenLayers; ++i) {
          sizes.push_back(config.hidden_units);
        }
        sizes.push_back(6);
        return sizes;
      }(), kSeed) {}

std::vector<double> MlpPosePredictor::Featurize(
    const std::vector<geom::TimedPose>& recent, std::size_t end_index) const {
  // Deltas of each pose w.r.t. the newest one in the window, so the network
  // learns motion patterns rather than absolute room coordinates.
  std::vector<double> features;
  features.reserve(static_cast<std::size_t>(kWindow) * 6);
  const auto newest = PoseVector(recent[end_index].pose);
  for (int w = kWindow - 1; w >= 0; --w) {
    const auto v = PoseVector(recent[end_index - static_cast<std::size_t>(w)].pose);
    for (int d = 0; d < 6; ++d) {
      features.push_back(v[static_cast<std::size_t>(d)] -
                         newest[static_cast<std::size_t>(d)]);
    }
  }
  return features;
}

void MlpPosePredictor::Train(const std::vector<sim::UserTrace>& traces) {
  struct Sample {
    std::vector<double> input;
    std::vector<double> target;
  };
  std::vector<Sample> samples;
  for (const auto& trace : traces) {
    const auto horizon_frames = static_cast<std::size_t>(
        std::max(1.0, std::round(kHorizonMs / 1000.0 * trace.fps)));
    const auto window = static_cast<std::size_t>(kWindow);
    if (trace.poses.size() < window + horizon_frames) continue;
    for (std::size_t end = window - 1;
         end + horizon_frames < trace.poses.size(); ++end) {
      Sample s;
      s.input = Featurize(trace.poses, end);
      const auto now = PoseVector(trace.poses[end].pose);
      const auto future = PoseVector(trace.poses[end + horizon_frames].pose);
      s.target.resize(6);
      for (int d = 0; d < 6; ++d) {
        s.target[static_cast<std::size_t>(d)] =
            future[static_cast<std::size_t>(d)] - now[static_cast<std::size_t>(d)];
      }
      samples.push_back(std::move(s));
    }
  }
  if (samples.empty()) return;

  util::Rng rng(kSeed ^ 0xabcdef);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Decaying learning rate stabilizes the small-sample regime.
    const double lr = kLearningRate / (1.0 + 0.1 * epoch);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& s = samples[rng.NextBelow(samples.size())];
      net_.TrainStep(s.input, s.target, lr);
    }
  }
}

geom::Pose MlpPosePredictor::Predict(
    const std::vector<geom::TimedPose>& recent) const {
  if (recent.size() < static_cast<std::size_t>(kWindow)) {
    return recent.empty() ? geom::Pose{} : recent.back().pose;
  }
  const auto input = Featurize(recent, recent.size() - 1);
  const auto delta = net_.Forward(input);
  const auto now = PoseVector(recent.back().pose);
  geom::Pose out;
  out.position = {now[0] + delta[0], now[1] + delta[1], now[2] + delta[2]};
  out.orientation = geom::Quat::FromEuler(now[3] + delta[3], now[4] + delta[4],
                                          now[5] + delta[5]);
  return out;
}

namespace {

PredictionError AccumulateErrors(
    const std::vector<sim::UserTrace>& traces,
    const std::function<geom::Pose(const sim::UserTrace&, std::size_t)>&
        predict_at,
    double horizon_ms) {
  PredictionError err;
  std::size_t count = 0;
  for (const auto& trace : traces) {
    const auto horizon_frames = static_cast<std::size_t>(
        std::max(1.0, std::round(horizon_ms / 1000.0 * trace.fps)));
    for (std::size_t i = 10; i + horizon_frames < trace.poses.size(); ++i) {
      const geom::Pose predicted = predict_at(trace, i);
      const geom::Pose& actual = trace.poses[i + horizon_frames].pose;
      err.position_m += predicted.position.DistanceTo(actual.position);
      err.rotation_deg += geom::RadToDeg(
          predicted.orientation.AngleTo(actual.orientation));
      ++count;
    }
  }
  if (count > 0) {
    err.position_m /= static_cast<double>(count);
    err.rotation_deg /= static_cast<double>(count);
  }
  return err;
}

}  // namespace

PredictionError EvaluateMlp(const MlpPosePredictor& predictor,
                            const std::vector<sim::UserTrace>& traces) {
  return AccumulateErrors(
      traces,
      [&](const sim::UserTrace& trace, std::size_t i) {
        std::vector<geom::TimedPose> recent(
            trace.poses.begin() +
                static_cast<std::ptrdiff_t>(i + 1 - static_cast<std::size_t>(kWindow)),
            trace.poses.begin() + static_cast<std::ptrdiff_t>(i + 1));
        return predictor.Predict(recent);
      },
      kHorizonMs);
}

PredictionError EvaluateKalman(const std::vector<sim::UserTrace>& traces,
                               double horizon_ms) {
  return AccumulateErrors(
      traces,
      [&](const sim::UserTrace& trace, std::size_t i) {
        PoseKalmanFilter filter;
        // Warm the filter with the trailing second of observations.
        const std::size_t start = i >= 30 ? i - 30 : 0;
        for (std::size_t j = start; j <= i; ++j) filter.Observe(trace.poses[j]);
        return filter.PredictAhead(horizon_ms);
      },
      horizon_ms);
}

}  // namespace livo::predict
