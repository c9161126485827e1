#include "metrics/mos.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/rng.h"

namespace livo::metrics {
namespace {

// Weight of geometry vs color in the base quality term (humans are much
// more sensitive to depth distortion, §3.3 / [95]).
constexpr double kGeometryWeight = 0.65;
// Base quality -> score mapping: score spans 1..5 as quality goes
// kQualityFloor..kQualityCeiling. The ceiling sits above 100: even perfect
// PSSIM is not "5.0" for every rater (headset comfort etc.).
constexpr double kQualityFloor = 25.0;
constexpr double kQualityCeiling = 105.0;
// Penalties in MOS points: per unit stall rate, and per unit frame-rate
// deficit against 30 fps.
constexpr double kStallPenalty = 4.0;
constexpr double kLowFpsPenalty = 1.9;

double BlendedQuality(const SessionQuality& q) {
  return kGeometryWeight * q.pssim_geometry +
         (1.0 - kGeometryWeight) * q.pssim_color;
}

}  // namespace

double MosScore(const SessionQuality& q) {
  const double t = std::clamp((BlendedQuality(q) - kQualityFloor) /
                                  (kQualityCeiling - kQualityFloor),
                              0.0, 1.0);
  double score = 1.0 + 4.0 * t;

  score -= kStallPenalty * std::clamp(q.stall_rate, 0.0, 1.0);

  // Participants judge frame rate against full-rate conferencing (30 fps)
  // regardless of a scheme's own target -- a 15 fps scheme reads as choppy
  // even when it hits its target (Table 5's MeshReduce frame-rate column).
  const double fps_deficit = std::clamp(1.0 - q.fps / 30.0, 0.0, 1.0);
  score -= kLowFpsPenalty * fps_deficit;

  return std::clamp(score, 1.0, 5.0);
}

std::vector<int> SyntheticRatings(const SessionQuality& q, int raters,
                                  std::uint64_t seed) {
  const double mean = MosScore(q);
  util::Rng rng(seed);
  std::vector<int> ratings;
  ratings.reserve(static_cast<std::size_t>(raters));
  for (int i = 0; i < raters; ++i) {
    // Inter-rater spread of ~0.6 MOS points is typical of 5-point Likert
    // studies of video quality.
    const double sample = rng.Gaussian(mean, 0.6);
    ratings.push_back(static_cast<int>(
        std::clamp(std::lround(sample), 1l, 5l)));
  }
  return ratings;
}

namespace {

// Distributes mass across L/M/H with a soft transition around two
// thresholds of the underlying statistic x (higher x = closer to H).
void SoftThreeWay(double x, double lo_threshold, double hi_threshold,
                  double softness, double out[3]) {
  const auto sigmoid = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };
  const double above_lo = sigmoid((x - lo_threshold) / softness);
  const double above_hi = sigmoid((x - hi_threshold) / softness);
  out[0] = 1.0 - above_lo;          // Low
  out[1] = above_lo - above_hi;     // Medium
  out[2] = above_hi;                // High
}

}  // namespace

FeedbackBreakdown FeedbackCategories(const SessionQuality& q) {
  FeedbackBreakdown fb{};
  // Frame rate: below ~60% of target reads as "low", above ~90% as "high".
  const double fps_ratio = q.fps / std::max(1.0, q.target_fps);
  SoftThreeWay(fps_ratio, 0.62, 0.92, 0.05, fb.frame_rate);
  // Stalls: comments flip from "smooth" (L) to "glitchy" (H) quickly.
  SoftThreeWay(q.stall_rate, 0.02, 0.15, 0.02, fb.stalls);
  // Quality from the blended PSSIM.
  SoftThreeWay(BlendedQuality(q), 55.0, 80.0, 5.0, fb.quality);
  return fb;
}

}  // namespace livo::metrics
