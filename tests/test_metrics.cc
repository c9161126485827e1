// Unit tests for livo::metrics — RMSE/PSNR, PointSSIM, and the MOS model.
#include <gtest/gtest.h>

#include "metrics/image_metrics.h"
#include "metrics/mos.h"
#include "metrics/pointssim.h"
#include "util/rng.h"

namespace livo::metrics {
namespace {

using pointcloud::Point;
using pointcloud::PointCloud;

TEST(ImageMetrics, RmseZeroForIdentical) {
  image::Plane16 a(8, 8, 1234);
  EXPECT_DOUBLE_EQ(PlaneRmse(a, a), 0.0);
}

TEST(ImageMetrics, RmseKnownValue) {
  image::Plane16 a(4, 4, 100);
  image::Plane16 b(4, 4, 103);
  EXPECT_DOUBLE_EQ(PlaneRmse(a, b), 3.0);
}

TEST(ImageMetrics, RmseShapeMismatchThrows) {
  image::Plane16 a(4, 4);
  image::Plane16 b(8, 4);
  EXPECT_THROW(PlaneRmse(a, b), std::invalid_argument);
}

TEST(ImageMetrics, ColorRmseAveragesChannels) {
  image::ColorImage a(2, 2), b(2, 2);
  for (int y = 0; y < 2; ++y) {
    for (int x = 0; x < 2; ++x) {
      a.SetPixel(x, y, 10, 10, 10);
      b.SetPixel(x, y, 13, 10, 10);  // only the red channel differs by 3
    }
  }
  EXPECT_NEAR(ColorRmse(a, b), 3.0 / std::sqrt(3.0), 1e-12);
}

TEST(ImageMetrics, PsnrBehaviour) {
  EXPECT_DOUBLE_EQ(Psnr(0.0, 255.0), 100.0);        // identical: capped
  EXPECT_NEAR(Psnr(255.0, 255.0), 0.0, 1e-12);      // max error
  EXPECT_GT(Psnr(1.0, 255.0), Psnr(10.0, 255.0));   // monotone
}

TEST(ImageMetrics, DepthRmseIgnoresJointInvalids) {
  image::DepthImage a(4, 1), b(4, 1);
  // Both invalid everywhere: no error.
  EXPECT_DOUBLE_EQ(DepthRmseMm(a, b), 0.0);
  // One valid pair with error 5.
  a.at(0, 0) = 1000;
  b.at(0, 0) = 1005;
  EXPECT_DOUBLE_EQ(DepthRmseMm(a, b), 5.0);
}

TEST(ImageMetrics, DepthRmsePenalizesMissingSurface) {
  image::DepthImage a(2, 1), b(2, 1);
  a.at(0, 0) = 3000;  // surface present in a, missing in b
  const double rmse = DepthRmseMm(a, b, 500.0);
  EXPECT_DOUBLE_EQ(rmse, 500.0);
}

// ---- PointSSIM ----

PointCloud GridCloud(int n, double spacing, std::uint8_t gray = 128) {
  PointCloud cloud;
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      for (int z = 0; z < 2; ++z) {
        cloud.Add({{x * spacing, y * spacing, z * spacing},
                   {gray, gray, gray}});
      }
    }
  }
  return cloud;
}

TEST(PointSsim, IdenticalCloudsScoreNear100) {
  const PointCloud cloud = GridCloud(12, 0.03);
  const PointSsimResult r = PointSsim(cloud, cloud);
  EXPECT_GT(r.geometry, 99.0);
  EXPECT_GT(r.color, 99.0);
}

TEST(PointSsim, EmptyCloudConventions) {
  const PointCloud empty;
  const PointCloud cloud = GridCloud(4, 0.05);
  EXPECT_EQ(PointSsim(empty, empty).geometry, 100.0);
  EXPECT_EQ(PointSsim(cloud, empty).geometry, 0.0);
  EXPECT_EQ(PointSsim(empty, cloud).color, 0.0);
}

TEST(PointSsim, GeometryDistortionLowersGeometryScore) {
  const PointCloud reference = GridCloud(12, 0.03);
  util::Rng rng(3);
  PointCloud jittered = reference;
  for (auto& p : jittered.points()) {
    p.position += {rng.Gaussian(0, 0.01), rng.Gaussian(0, 0.01),
                   rng.Gaussian(0, 0.01)};
  }
  const PointSsimResult clean = PointSsim(reference, reference);
  const PointSsimResult noisy = PointSsim(reference, jittered);
  EXPECT_LT(noisy.geometry, clean.geometry - 2.0);
}

TEST(PointSsim, MoreGeometryNoiseScoresWorse) {
  const PointCloud reference = GridCloud(12, 0.03);
  double last = 101.0;
  for (double sigma : {0.002, 0.008, 0.02}) {
    util::Rng rng(4);
    PointCloud jittered = reference;
    for (auto& p : jittered.points()) {
      p.position += {rng.Gaussian(0, sigma), rng.Gaussian(0, sigma),
                     rng.Gaussian(0, sigma)};
    }
    const double score = PointSsim(reference, jittered).geometry;
    EXPECT_LT(score, last) << "sigma " << sigma;
    last = score;
  }
}

TEST(PointSsim, ColorDistortionLowersColorScore) {
  const PointCloud reference = GridCloud(12, 0.03, 128);
  util::Rng rng(5);
  PointCloud distorted = reference;
  for (auto& p : distorted.points()) {
    const int v = 128 + rng.UniformInt(-60, 60);
    p.color = {static_cast<std::uint8_t>(std::clamp(v, 0, 255)),
               static_cast<std::uint8_t>(std::clamp(v, 0, 255)),
               static_cast<std::uint8_t>(std::clamp(v, 0, 255))};
  }
  const PointSsimResult r = PointSsim(reference, distorted);
  EXPECT_LT(r.color, 97.0);
  // Geometry untouched: geometry score stays high.
  EXPECT_GT(r.geometry, 98.0);
}

TEST(PointSsim, MissingHalfTheSceneTanksGeometry) {
  const PointCloud reference = GridCloud(12, 0.03);
  PointCloud half;
  for (std::size_t i = 0; i < reference.size() / 2; ++i) {
    half.Add(reference.points()[i]);
  }
  const PointSsimResult r = PointSsim(reference, half);
  EXPECT_LT(r.geometry, 75.0);
}

TEST(PointToPointPsnr, IdenticalIsHigh) {
  const PointCloud cloud = GridCloud(10, 0.03);
  EXPECT_GT(PointToPointPsnr(cloud, cloud), 90.0);
}

TEST(PointToPointPsnr, MonotoneInNoise) {
  const PointCloud reference = GridCloud(10, 0.03);
  double last = 1e9;
  for (double sigma : {0.002, 0.01}) {
    util::Rng rng(6);
    PointCloud jittered = reference;
    for (auto& p : jittered.points()) {
      p.position += {rng.Gaussian(0, sigma), rng.Gaussian(0, sigma),
                     rng.Gaussian(0, sigma)};
    }
    const double psnr = PointToPointPsnr(reference, jittered);
    EXPECT_LT(psnr, last);
    last = psnr;
  }
}

// ---- MOS model ----

TEST(MosModel, PaperAnchorOrdering) {
  // Operating points measured in the paper (§4.2-4.3).
  const SessionQuality livo{87.8, 82.9, 0.017, 30.0, 30.0};
  const SessionQuality nocull{81.0, 80.9, 0.079, 28.0, 30.0};
  const SessionQuality meshreduce{67.0, 77.3, 0.0, 12.1, 15.0};
  const SessionQuality draco{28.3, 29.9, 0.693, 4.6, 15.0};
  const double m_livo = MosScore(livo);
  const double m_nocull = MosScore(nocull);
  const double m_mesh = MosScore(meshreduce);
  const double m_draco = MosScore(draco);
  EXPECT_GT(m_livo, m_nocull);
  EXPECT_GT(m_nocull, m_mesh);
  EXPECT_GT(m_mesh, m_draco);
  // Calibration within +-0.5 MOS of the published anchors.
  EXPECT_NEAR(m_livo, 4.1, 0.5);
  EXPECT_NEAR(m_nocull, 3.4, 0.5);
  EXPECT_NEAR(m_mesh, 2.5, 0.5);
  EXPECT_NEAR(m_draco, 1.5, 0.5);
}

TEST(MosModel, BoundedToLikertRange) {
  EXPECT_GE(MosScore({0, 0, 1.0, 0, 30}), 1.0);
  EXPECT_LE(MosScore({100, 100, 0.0, 30, 30}), 5.0);
}

TEST(MosModel, StallsHurt) {
  const SessionQuality good{85, 85, 0.0, 30, 30};
  SessionQuality stalled = good;
  stalled.stall_rate = 0.3;
  EXPECT_LT(MosScore(stalled), MosScore(good) - 0.5);
}

TEST(MosModel, LowFpsHurts) {
  const SessionQuality fast{85, 85, 0.0, 30, 30};
  SessionQuality slow = fast;
  slow.fps = 12.0;
  EXPECT_LT(MosScore(slow), MosScore(fast) - 0.5);
}

TEST(SyntheticRatings, DeterministicAndInRange) {
  const SessionQuality q{85, 85, 0.0, 30, 30};
  const auto a = SyntheticRatings(q, 20, 42);
  const auto b = SyntheticRatings(q, 20, 42);
  EXPECT_EQ(a, b);
  for (int r : a) {
    EXPECT_GE(r, 1);
    EXPECT_LE(r, 5);
  }
}

TEST(FeedbackCategories, SumToOneAndMatchExtremes) {
  // Smooth high-quality session: frame rate and quality read High,
  // stalls read Low.
  const FeedbackBreakdown good = FeedbackCategories({90, 88, 0.0, 30, 30});
  for (const double* cat : {good.frame_rate, good.stalls, good.quality}) {
    EXPECT_NEAR(cat[0] + cat[1] + cat[2], 1.0, 1e-9);
  }
  EXPECT_GT(good.frame_rate[2], 0.8);
  EXPECT_GT(good.stalls[0], 0.6);
  EXPECT_GT(good.quality[2], 0.6);

  // Stall-ridden slideshow: frame rate Low, stalls High, quality Low.
  const FeedbackBreakdown bad = FeedbackCategories({25, 30, 0.7, 5, 30});
  EXPECT_GT(bad.frame_rate[0], 0.8);
  EXPECT_GT(bad.stalls[2], 0.8);
  EXPECT_GT(bad.quality[0], 0.8);
}

}  // namespace
}  // namespace livo::metrics
