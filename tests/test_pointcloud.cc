// Unit tests for livo::pointcloud — cloud operations, RGB-D
// reconstruction, voxel downsampling, and the nearest-neighbour index
// (differentially against brute force).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "geom/camera.h"
#include "pointcloud/pointcloud.h"
#include "util/rng.h"

namespace livo::pointcloud {
namespace {

using geom::Vec3;

PointCloud MakeCloud(std::initializer_list<Vec3> positions) {
  PointCloud cloud;
  for (const Vec3& p : positions) cloud.Add({p, {10, 20, 30}});
  return cloud;
}

TEST(PointCloud, CentroidAndBounds) {
  const PointCloud cloud = MakeCloud({{0, 0, 0}, {2, 4, 6}});
  EXPECT_EQ(cloud.Centroid(), Vec3(1, 2, 3));
  Vec3 lo, hi;
  cloud.Bounds(lo, hi);
  EXPECT_EQ(lo, Vec3(0, 0, 0));
  EXPECT_EQ(hi, Vec3(2, 4, 6));
}

TEST(PointCloud, RawBytesAccounting) {
  const PointCloud cloud = MakeCloud({{0, 0, 0}, {1, 1, 1}, {2, 2, 2}});
  EXPECT_EQ(cloud.RawBytes(), 3u * 15u);
}

TEST(PointCloud, TransformedMovesPoints) {
  const PointCloud cloud = MakeCloud({{1, 0, 0}});
  const geom::Mat4 shift = geom::Mat4::FromRigid(geom::Mat3::Identity(), {0, 5, 0});
  const PointCloud moved = cloud.Transformed(shift);
  EXPECT_TRUE(geom::AlmostEqual(moved.points()[0].position, {1, 5, 0}));
  EXPECT_EQ(moved.points()[0].color, cloud.points()[0].color);
}

TEST(PointCloud, CulledToFrustumKeepsInsidePoints) {
  const geom::Pose pose = geom::Pose::LookAt({0, 0, 0}, {0, 0, -1});
  const geom::Frustum frustum(pose, {geom::DegToRad(60.0), 1.0, 0.1, 10.0});
  const PointCloud cloud = MakeCloud({{0, 0, -5}, {0, 0, 5}, {0, 0, -20}});
  const PointCloud culled = cloud.CulledTo(frustum);
  ASSERT_EQ(culled.size(), 1u);
  EXPECT_EQ(culled.points()[0].position, Vec3(0, 0, -5));
}

class ReconstructionTest : public ::testing::Test {
 protected:
  ReconstructionTest() {
    cam_.intrinsics = geom::CameraIntrinsics::FromFov(32, 24, geom::DegToRad(70));
    cam_.extrinsics.pose = geom::Pose::LookAt({0, 1, 3}, {0, 1, 0});
  }
  geom::RgbdCamera cam_;
};

TEST_F(ReconstructionTest, SinglePixelRoundTrip) {
  image::RgbdFrame view(32, 24);
  view.depth.at(16, 12) = 2000;
  view.color.SetPixel(16, 12, 100, 150, 200);
  const PointCloud cloud = ReconstructFromViews({view}, {cam_});
  ASSERT_EQ(cloud.size(), 1u);
  const Point& p = cloud.points()[0];
  EXPECT_EQ(p.color, (PointColor{100, 150, 200}));
  // A centre-ish pixel at 2 m lands ~2 m in front of the camera.
  EXPECT_NEAR(p.position.z, 1.0, 0.2);
  EXPECT_NEAR(p.position.y, 1.0, 0.2);
}

TEST_F(ReconstructionTest, InvalidDepthSkipped) {
  image::RgbdFrame view(32, 24);  // all depth zero
  EXPECT_TRUE(ReconstructFromViews({view}, {cam_}).empty());
}

TEST_F(ReconstructionTest, OutOfRangeDepthSkipped) {
  image::RgbdFrame view(32, 24);
  view.depth.at(5, 5) = 100;     // 10 cm: below ToF min range
  view.depth.at(6, 6) = 6500;    // 6.5 m: beyond max range
  EXPECT_TRUE(ReconstructFromViews({view}, {cam_}).empty());
}

TEST_F(ReconstructionTest, ProjectionReconstructionConsistency) {
  // A pixel reconstructed to the world must project back to itself.
  image::RgbdFrame view(32, 24);
  view.depth.at(10, 7) = 1500;
  const PointCloud cloud = ReconstructFromViews({view}, {cam_});
  ASSERT_EQ(cloud.size(), 1u);
  const geom::Vec3 local = cam_.extrinsics.WorldToCamera().TransformPoint(
      cloud.points()[0].position);
  const auto proj = cam_.intrinsics.Project(local);
  ASSERT_TRUE(proj.has_value());
  EXPECT_NEAR(proj->x, 10.5, 1e-6);
  EXPECT_NEAR(proj->y, 7.5, 1e-6);
  EXPECT_NEAR(proj->z, 1.5, 1e-9);
}

TEST(VoxelDownsample, CollapsesPointsInOneVoxel) {
  PointCloud cloud;
  cloud.Add({{0.001, 0.001, 0.001}, {10, 0, 0}});
  cloud.Add({{0.009, 0.002, 0.004}, {30, 0, 0}});
  cloud.Add({{0.5, 0.5, 0.5}, {200, 0, 0}});  // another voxel
  const PointCloud down = VoxelDownsample(cloud, 0.05);
  EXPECT_EQ(down.size(), 2u);
  // The merged voxel averages positions and colors.
  bool found_merged = false;
  for (const Point& p : down.points()) {
    if (p.position.Norm() < 0.05) {
      found_merged = true;
      EXPECT_EQ(p.color.r, 20);
      EXPECT_NEAR(p.position.x, 0.005, 1e-9);
    }
  }
  EXPECT_TRUE(found_merged);
}

TEST(VoxelDownsample, PreservesIsolatedPoints) {
  util::Rng rng(4);
  PointCloud cloud;
  for (int i = 0; i < 100; ++i) {
    // Points at least 0.2 apart on a grid; voxel 0.05 keeps them all.
    cloud.Add({{(i % 10) * 0.2, (i / 10) * 0.2, 0.0}, {1, 2, 3}});
  }
  EXPECT_EQ(VoxelDownsample(cloud, 0.05).size(), 100u);
}

TEST(VoxelDownsample, NegativeCoordinatesBucketCorrectly) {
  PointCloud cloud;
  cloud.Add({{-0.01, 0, 0}, {0, 0, 0}});
  cloud.Add({{0.01, 0, 0}, {0, 0, 0}});
  // Straddles the origin: floor() bucketing must place them in different
  // voxels rather than merging across zero.
  EXPECT_EQ(VoxelDownsample(cloud, 0.05).size(), 2u);
}

// The voxelizer's contract, built on std::map: voxels in the order of
// their first point, each summing its points in input order.
PointCloud ReferenceVoxelDownsample(const PointCloud& cloud, double voxel) {
  struct Accum {
    Vec3 position_sum;
    double r = 0, g = 0, b = 0;
    int count = 0;
  };
  std::map<std::tuple<int, int, int>, std::size_t> index;
  std::vector<Accum> voxels;
  for (const Point& p : cloud.points()) {
    const std::tuple<int, int, int> key{
        static_cast<int>(std::floor(p.position.x / voxel)),
        static_cast<int>(std::floor(p.position.y / voxel)),
        static_cast<int>(std::floor(p.position.z / voxel))};
    const auto [it, inserted] = index.try_emplace(key, voxels.size());
    if (inserted) voxels.emplace_back();
    Accum& a = voxels[it->second];
    a.position_sum += p.position;
    a.r += p.color.r;
    a.g += p.color.g;
    a.b += p.color.b;
    ++a.count;
  }
  PointCloud out;
  for (const Accum& a : voxels) {
    const double n = a.count;
    out.Add({a.position_sum / n,
             {static_cast<std::uint8_t>(std::lround(a.r / n)),
              static_cast<std::uint8_t>(std::lround(a.g / n)),
              static_cast<std::uint8_t>(std::lround(a.b / n))}});
  }
  return out;
}

PointColor RandomColor(util::Rng& rng) {
  return {static_cast<std::uint8_t>(rng.NextBelow(256)),
          static_cast<std::uint8_t>(rng.NextBelow(256)),
          static_cast<std::uint8_t>(rng.NextBelow(256))};
}

TEST(VoxelDownsample, EmitsVoxelsInFirstPointOrder) {
  PointCloud cloud;
  cloud.Add({{0.32, 0, 0}, {90, 0, 0}});   // voxel A
  cloud.Add({{-0.32, 0, 0}, {60, 0, 0}});  // voxel B
  cloud.Add({{0.33, 0, 0}, {50, 0, 0}});   // voxel A again
  cloud.Add({{0, 0.32, 0}, {10, 0, 0}});   // voxel C
  const PointCloud down = VoxelDownsample(cloud, 0.05);
  ASSERT_EQ(down.size(), 3u);
  EXPECT_EQ(down.points()[0].color.r, 70);
  EXPECT_EQ(down.points()[1].color.r, 60);
  EXPECT_EQ(down.points()[2].color.r, 10);
  EXPECT_EQ(down.points(), ReferenceVoxelDownsample(cloud, 0.05).points());
}

// An empty cloud, then random clouds with negative keys, keys beyond 2^21
// on every axis (which a 21-bit packed key would fold together), and
// repeated points, against the std::map reference, point for point.
TEST(VoxelDownsample, MatchesOrderedReference) {
  util::Rng rng(17);
  const double voxel = 0.05;
  EXPECT_TRUE(VoxelDownsample(PointCloud{}, voxel).empty());
  const double far = voxel * static_cast<double>(1 << 21);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    PointCloud cloud;
    // Dense (many points per voxel), sparse, then spread far past 2^21.
    const double span = trial < 2 ? 0.25 : trial < 4 ? 1.0 : 4.0 * far;
    for (int i = 0; i < 3000; ++i) {
      const Vec3 p{rng.Uniform(-span, span), rng.Uniform(-span, span),
                   rng.Uniform(-span, span)};
      cloud.Add({p, RandomColor(rng)});
      // Far copies alias the near point's voxel modulo 2^21 cells.
      if (i % 7 == 0) cloud.Add({p + Vec3{far, -far, far}, RandomColor(rng)});
      if (i % 5 == 0) cloud.Add({p, RandomColor(rng)});  // duplicate point
    }
    const PointCloud down = VoxelDownsample(cloud, voxel);
    EXPECT_EQ(down.points(), ReferenceVoxelDownsample(cloud, voxel).points());
    EXPECT_LT(down.size(), cloud.size());
  }
}

// ---- GridIndex: differential against brute force ----

using Neighbour = GridIndex::Neighbour;

// Every point within the radius, by (squared distance, index), first k.
std::vector<Neighbour> BruteForce(const PointCloud& cloud, const Vec3& q,
                                  int k, double radius) {
  std::vector<Neighbour> all;
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const double d2 = (cloud.points()[i].position - q).NormSq();
    if (d2 <= radius * radius) all.push_back({d2, static_cast<int>(i)});
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min(all.size(), static_cast<std::size_t>(std::max(k, 0))));
  return all;
}

std::vector<int> IndicesOf(const std::vector<Neighbour>& neighbours) {
  std::vector<int> indices;
  for (const Neighbour& n : neighbours) indices.push_back(n.index);
  return indices;
}

// KNearest, its buffer overload and Nearest against brute force for every
// query x k x radius, at cell sizes 0.05, 0.2 and 1.0.
void ExpectMatchesBruteForce(const PointCloud& cloud,
                             const std::vector<Vec3>& queries,
                             const std::vector<int>& ks,
                             const std::vector<double>& radii) {
  for (double cell : {0.05, 0.2, 1.0}) {
    const GridIndex index(cloud, cell);
    std::vector<Neighbour> buffer;  // reused across queries
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      for (int k : ks) {
        for (double radius : radii) {
          SCOPED_TRACE(testing::Message() << "cell " << cell << " query "
                                          << qi << " k " << k << " radius "
                                          << radius);
          const Vec3& q = queries[qi];
          const auto expected = BruteForce(cloud, q, k, radius);
          index.KNearest(q, k, radius, buffer);
          EXPECT_EQ(IndicesOf(buffer), IndicesOf(expected));
          EXPECT_TRUE(buffer == expected);  // distances too, bit for bit
          EXPECT_EQ(index.KNearest(q, k, radius), IndicesOf(expected));
          const auto nearest = BruteForce(cloud, q, 1, radius);
          EXPECT_EQ(index.Nearest(q, radius),
                    nearest.empty() ? -1 : nearest.front().index);
        }
      }
    }
  }
}

TEST(GridIndex, MatchesBruteForceOnRandomClouds) {
  util::Rng rng(7);
  PointCloud sparse;  // 500 points in a 2 m cube around the origin
  for (int i = 0; i < 500; ++i) {
    sparse.Add({{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                {0, 0, 0}});
  }
  PointCloud dense;  // 2000 points in a 0.4 x 0.4 x 0.1 m slab
  for (int i = 0; i < 2000; ++i) {
    dense.Add({{rng.Uniform(-0.2, 0.2), rng.Uniform(0.3, 0.7),
                rng.Uniform(-0.05, 0.05)},
               {0, 0, 0}});
  }
  for (const PointCloud* cloud : {&sparse, &dense}) {
    std::vector<Vec3> queries;
    // Inside and just outside the occupied box, some on cloud points.
    for (int i = 0; i < 30; ++i) {
      queries.push_back({rng.Uniform(-1.3, 1.3), rng.Uniform(-1.3, 1.3),
                         rng.Uniform(-1.3, 1.3)});
    }
    for (std::size_t i = 0; i < cloud->size(); i += 97) {
      queries.push_back(cloud->points()[i].position);
    }
    queries.push_back({100, 100, 100});  // far outside: nothing in range
    ExpectMatchesBruteForce(*cloud, queries, {1, 8, 600},
                            {0.0, 0.25, 0.5, 3.0});
  }
}

class GridIndexTest : public ::testing::Test {
 protected:
  GridIndexTest() {
    util::Rng rng(7);
    for (int i = 0; i < 500; ++i) {
      cloud_.Add({{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
                  {0, 0, 0}});
    }
  }

  PointCloud cloud_;
};

TEST_F(GridIndexTest, NearestMatchesBruteForce) {
  const GridIndex index(cloud_, 0.2);
  util::Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    const Vec3 q{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    const auto expected = BruteForce(cloud_, q, 1, 3.0);
    ASSERT_FALSE(expected.empty()) << "trial " << trial;
    EXPECT_EQ(index.Nearest(q, 3.0), expected.front().index) << "trial " << trial;
  }
}

TEST_F(GridIndexTest, KNearestSortedByDistance) {
  const GridIndex index(cloud_, 0.2);
  const Vec3 q{0.1, 0.1, 0.1};
  const auto knn = index.KNearest(q, 8, 3.0);
  ASSERT_EQ(knn.size(), 8u);
  double last = -1.0;
  for (int idx : knn) {
    const double d = (cloud_.points()[static_cast<std::size_t>(idx)].position - q).Norm();
    EXPECT_GE(d, last);
    last = d;
  }
}

TEST(GridIndex, MatchesBruteForceOnTiesAndRadiusEdges) {
  const PointCloud cloud = MakeCloud({
      {0.1, 0, 0}, {-0.1, 0, 0}, {0, 0.1, 0},     // equidistant from
      {0, -0.1, 0}, {0, 0, 0.1}, {0, 0, -0.1},    // the origin
      {0.1, 0, 0}, {0.1, 0, 0},                   // duplicates
      {0.5, 0, 0}, {0, -0.5, 0},                  // exactly 0.5 away
      {0.5000001, 0, 0},                          // just beyond 0.5
      {-0.001, 0.001, -0.001}, {0.001, -0.001, 0.001},  // straddle zero
      {-0.25, -0.25, 0.25},
  });
  const std::vector<Vec3> queries = {
      {0, 0, 0}, {0.1, 0, 0}, {-0.0005, 0.0005, 0}, {0.05, 0.05, 0.05},
      {1.2, 0, 0},  // outside the box, in range of its edge
      {-3, 4, 5},   // outside the box, out of range
  };
  ExpectMatchesBruteForce(cloud, queries, {1, 2, 3, 7, 50}, {0.1, 0.5, 1.0});

  // Ties resolve by index; a point at exactly the radius is kept.
  for (double cell : {0.05, 0.2, 1.0}) {
    const GridIndex index(cloud, cell);
    EXPECT_EQ(index.KNearest({0.1, 0, 0}, 3, 0.5), (std::vector<int>{0, 6, 7}));
    EXPECT_EQ(index.KNearest({0.2, 0, 0}, 3, 0.5), (std::vector<int>{0, 6, 7}));
    const auto ring = index.KNearest({0, 0, 0}, 14, 0.5);
    ASSERT_GE(ring.size(), 8u);
    EXPECT_EQ(std::vector<int>(ring.begin() + 2, ring.begin() + 8),
              (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_NE(std::find(ring.begin(), ring.end(), 8), ring.end());
    EXPECT_NE(std::find(ring.begin(), ring.end(), 9), ring.end());
    EXPECT_EQ(std::find(ring.begin(), ring.end(), 10), ring.end());
  }
}

TEST(GridIndex, EmptyCloud) {
  const PointCloud empty;
  ExpectMatchesBruteForce(empty, {{0, 0, 0}, {1, -1, 2}}, {1, 8}, {0.5, 1.0});
  EXPECT_EQ(GridIndex(empty, 0.1).Nearest({0, 0, 0}), -1);
}

TEST(GridIndex, OnePointCloud) {
  const PointCloud one = MakeCloud({{-0.3, 0.2, 0.05}});
  ExpectMatchesBruteForce(one, {{-0.3, 0.2, 0.05}, {0, 0, 0}, {-0.3, 0.2, 0.6}},
                          {1, 8}, {0.25, 0.55, 1.0});
}

// A lone far outlier would make the dense table span kilometres of empty
// cells; the index coarsens its cells instead and stays exact.
TEST(GridIndex, FarOutlierTripsBoxGuard) {
  util::Rng rng(11);
  PointCloud cloud;
  for (int i = 0; i < 300; ++i) {
    cloud.Add({{rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Uniform(-1, 1)},
               {0, 0, 0}});
  }
  cloud.Add({{500, -400, 300}, {0, 0, 0}});
  for (double cell : {0.05, 0.2, 1.0}) {
    EXPECT_GT(GridIndex(cloud, cell).cell_size_m(), cell);
  }
  std::vector<Vec3> queries = {{500, -400, 300.2}, {499, -400, 300}, {0, 0, 0}};
  for (int i = 0; i < 20; ++i) {
    queries.push_back({rng.Uniform(-1.2, 1.2), rng.Uniform(-1.2, 1.2),
                       rng.Uniform(-1.2, 1.2)});
  }
  ExpectMatchesBruteForce(cloud, queries, {1, 8}, {0.25, 0.5, 3.0});
}

TEST(GridIndex, NonPositiveKReturnsNoNeighbours) {
  const PointCloud one = MakeCloud({{0, 0, 0}});
  const GridIndex index(one, 0.1);
  std::vector<Neighbour> buffer = {{1.0, 3}};
  for (int k : {0, -1}) {
    EXPECT_TRUE(index.KNearest({0, 0, 0}, k, 0.5).empty());
    index.KNearest({0, 0, 0}, k, 0.5, buffer);
    EXPECT_TRUE(buffer.empty());
  }
}

TEST(GridIndex, RejectsNonPositiveCellSize) {
  const PointCloud one = MakeCloud({{0, 0, 0}});
  for (double cell : {0.0, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((GridIndex{one, cell}), std::invalid_argument);
  }
  EXPECT_THROW((GridIndex{PointCloud{}, 0.0}), std::invalid_argument);
}

}  // namespace
}  // namespace livo::pointcloud
