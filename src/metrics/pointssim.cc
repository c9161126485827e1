#include "metrics/pointssim.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace livo::metrics {
namespace {

using pointcloud::GridIndex;
using pointcloud::PointCloud;

double Luminance(const pointcloud::PointColor& c) {
  return 0.299 * c.r + 0.587 * c.g + 0.114 * c.b;
}

// Local features at a point: dispersion of neighbour distances (geometry)
// and dispersion of neighbour luminance (color). Dispersion = standard
// deviation, the "variance estimator" variant of PointSSIM.
struct LocalFeatures {
  double geometry = 0.0;
  double color = 0.0;
  bool valid = false;
};

// `knn` is the caller's neighbour buffer, reused across anchors.
LocalFeatures FeaturesAt(const PointCloud& cloud, const GridIndex& index,
                         const geom::Vec3& anchor, int k, double radius,
                         std::vector<GridIndex::Neighbour>& knn) {
  LocalFeatures f;
  index.KNearest(anchor, k, radius, knn);
  if (knn.size() < 2) return f;

  const auto luminance = [&cloud](const GridIndex::Neighbour& nb) {
    return Luminance(cloud.points()[static_cast<std::size_t>(nb.index)].color);
  };
  double dist_mean = 0.0, lum_mean = 0.0;
  for (const GridIndex::Neighbour& nb : knn) {
    dist_mean += std::sqrt(nb.distance_sq);
    lum_mean += luminance(nb);
  }
  const double n = static_cast<double>(knn.size());
  dist_mean /= n;
  lum_mean /= n;
  double dist_var = 0.0, lum_var = 0.0;
  for (const GridIndex::Neighbour& nb : knn) {
    const double d = std::sqrt(nb.distance_sq);
    const double l = luminance(nb);
    dist_var += (d - dist_mean) * (d - dist_mean);
    lum_var += (l - lum_mean) * (l - lum_mean);
  }
  // Mean distance also enters the geometry feature: it captures local
  // density, which depth errors perturb even when dispersion is stable.
  f.geometry = dist_mean + std::sqrt(dist_var / n);
  f.color = lum_mean + std::sqrt(lum_var / n);
  f.valid = true;
  return f;
}

// Relative-difference similarity of two feature values, in [0, 1].
double FeatureSimilarity(double fa, double fb, double eps) {
  const double denom = std::max({std::abs(fa), std::abs(fb), eps});
  const double sim = 1.0 - std::abs(fa - fb) / denom;
  return std::clamp(sim, 0.0, 1.0);
}

// Deterministically subsamples anchor indices.
std::vector<std::size_t> SampleAnchors(std::size_t total, int max_anchors,
                                       std::uint64_t seed) {
  std::vector<std::size_t> anchors;
  if (max_anchors <= 0 || total <= static_cast<std::size_t>(max_anchors)) {
    anchors.resize(total);
    for (std::size_t i = 0; i < total; ++i) anchors[i] = i;
    return anchors;
  }
  util::Rng rng(seed);
  anchors.reserve(static_cast<std::size_t>(max_anchors));
  for (int i = 0; i < max_anchors; ++i) {
    anchors.push_back(static_cast<std::size_t>(rng.NextBelow(total)));
  }
  return anchors;
}

// One direction of the symmetric comparison: anchors drawn from `from`,
// matched to nearest neighbours in `to`.
PointSsimResult OneWay(const PointCloud& from, const GridIndex& from_index,
                       const PointCloud& to, const GridIndex& to_index,
                       const PointSsimConfig& config) {
  const auto anchors = SampleAnchors(from.size(), config.max_anchors,
                                     config.sample_seed);
  double geom_sum = 0.0, color_sum = 0.0;
  int counted = 0;
  // Feature scale floors: 1 mm dispersion for geometry, 1 luminance step
  // for color, preventing division blow-ups on perfectly flat regions.
  constexpr double kGeomEps = 1e-3;
  constexpr double kColorEps = 1.0;

  std::vector<GridIndex::Neighbour> knn;
  for (std::size_t ai : anchors) {
    const geom::Vec3& anchor = from.points()[ai].position;
    const LocalFeatures fa = FeaturesAt(from, from_index, anchor,
                                        config.neighbours, config.max_radius_m,
                                        knn);
    if (!fa.valid) continue;
    // An anchor with no usable neighbourhood in the other cloud (a hole)
    // counts as zero similarity rather than being silently dropped.
    ++counted;
    const LocalFeatures fb = FeaturesAt(to, to_index, anchor,
                                        config.neighbours, config.max_radius_m,
                                        knn);
    if (!fb.valid) continue;
    geom_sum += FeatureSimilarity(fa.geometry, fb.geometry, kGeomEps);
    color_sum += FeatureSimilarity(fa.color, fb.color, kColorEps);
  }

  PointSsimResult result;
  if (counted == 0) return result;
  result.geometry = 100.0 * geom_sum / counted;
  result.color = 100.0 * color_sum / counted;
  return result;
}

}  // namespace

PointSsimResult PointSsim(const PointCloud& reference,
                          const PointCloud& distorted,
                          const PointSsimConfig& config) {
  if (reference.empty() && distorted.empty()) return {100.0, 100.0};
  if (reference.empty() || distorted.empty()) return {0.0, 0.0};

  const double cell = std::max(0.01, config.max_radius_m / 2.0);
  const GridIndex ref_index(reference, cell);
  const GridIndex dist_index(distorted, cell);

  const PointSsimResult ab =
      OneWay(reference, ref_index, distorted, dist_index, config);
  const PointSsimResult ba =
      OneWay(distorted, dist_index, reference, ref_index, config);

  // Symmetric pooling: the worse direction dominates (standard practice so
  // that both missing surfaces and hallucinated ones are punished).
  return {std::min(ab.geometry, ba.geometry), std::min(ab.color, ba.color)};
}

double PointToPointPsnr(const PointCloud& reference,
                        const PointCloud& distorted, int max_anchors) {
  if (reference.empty() || distorted.empty()) return 0.0;
  geom::Vec3 lo, hi;
  reference.Bounds(lo, hi);
  const double peak = (hi - lo).Norm();
  if (peak <= 0.0) return 0.0;

  const double cell = 0.1;
  const GridIndex ref_index(reference, cell);
  const GridIndex dist_index(distorted, cell);

  const auto accumulate = [&](const PointCloud& from, const GridIndex& to,
                              std::uint64_t seed) {
    const auto anchors = SampleAnchors(from.size(), max_anchors, seed);
    double mse = 0.0;
    for (std::size_t ai : anchors) {
      const geom::Vec3& p = from.points()[ai].position;
      const int match = to.Nearest(p, 1.0);
      const double d =
          match < 0
              ? 1.0
              : (from.points()[ai].position -
                 (&from == &reference ? distorted : reference)
                     .points()[static_cast<std::size_t>(match)]
                     .position)
                    .Norm();
      mse += d * d;
    }
    return mse / static_cast<double>(anchors.size());
  };

  const double mse_ab = accumulate(reference, dist_index, 1);
  const double mse_ba = accumulate(distorted, ref_index, 2);
  const double mse = std::max(mse_ab, mse_ba);
  if (mse <= 0.0) return 100.0;
  return std::min(100.0, 10.0 * std::log10(peak * peak / mse));
}

}  // namespace livo::metrics
