// PointSSIM — structural similarity for point clouds (§4.1 "Metrics").
//
// Implementation follows the structure of Alexiou & Ebrahimi, "Towards a
// Point Cloud Structural Similarity Metric" (ICMEW 2020): for each point,
// a local statistical feature is computed over its k-nearest-neighbour
// region; feature maps of the reference and distorted cloud are compared by
// relative difference and error-pooled. Geometry PSSIM uses neighbourhood
// distance dispersion (a curvature/density proxy); color PSSIM uses
// neighbourhood luminance dispersion.
//
// Scores are scaled to [0, 100]; "values in the high 80s or above are
// generally considered good" (§4.1). Per the paper's evaluation, stalled
// frames score 0.
//
// The metric subsamples anchor points (deterministically) for tractability;
// with >= ~2000 anchors the estimate is stable to well under a PSSIM point.
#pragma once

#include "pointcloud/pointcloud.h"

namespace livo::metrics {

// Each anchor's local neighbourhood is its 8 nearest points within 25 cm;
// anchors are subsampled with a fixed seed.
struct PointSsimConfig {
  int max_anchors = 2000;        // anchor subsample size (0 = all points)
};

struct PointSsimResult {
  double geometry = 0.0;  // [0, 100]
  double color = 0.0;     // [0, 100]
};

// Computes symmetric PSSIM between a reference and a distorted cloud.
// Empty distorted cloud (fully lost frame) scores 0; two empty clouds score
// 100 (nothing to get wrong).
PointSsimResult PointSsim(const pointcloud::PointCloud& reference,
                          const pointcloud::PointCloud& distorted,
                          const PointSsimConfig& config = {});

// Point-to-point geometry PSNR (Tian et al., ICIP 2017): MSE of
// nearest-neighbour distances in both directions against a peak equal to
// the reference bounding-box diagonal.
double PointToPointPsnr(const pointcloud::PointCloud& reference,
                        const pointcloud::PointCloud& distorted,
                        int max_anchors = 2000);

}  // namespace livo::metrics
