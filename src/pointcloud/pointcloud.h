// Point cloud representation and RGB-D <-> cloud conversions.
//
// "A point cloud is one representation of a frame. Each point ... has
// location coordinates (also called geometry) and color" (§1). The receiver
// reconstructs point clouds from decoded tiled RGB-D frames using the
// camera parameters exchanged at session setup (§A.1), then voxelizes and
// culls to the current frustum before rendering.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/camera.h"
#include "geom/frustum.h"
#include "geom/vec.h"
#include "image/image.h"

namespace livo::pointcloud {

struct PointColor {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  bool operator==(const PointColor&) const = default;
};

struct Point {
  geom::Vec3 position;  // metres, world frame
  PointColor color;

  bool operator==(const Point&) const = default;
};

class PointCloud {
 public:
  PointCloud() = default;
  explicit PointCloud(std::vector<Point> points) : points_(std::move(points)) {}

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const std::vector<Point>& points() const { return points_; }
  std::vector<Point>& points() { return points_; }

  void Add(const Point& p) { points_.push_back(p); }
  void Reserve(std::size_t n) { points_.reserve(n); }

  // Uncompressed in-memory size following the paper's accounting (Table 3):
  // 3 float64 coordinates + 3 color bytes + alignment = 32 bytes per point
  // is typical of Open3D-style storage; we report 15 bytes (3x float32 + 3
  // bytes color) as the wire-oriented raw size used for frame-size tables.
  std::size_t RawBytes() const { return points_.size() * 15; }

  geom::Vec3 Centroid() const;

  // Axis-aligned bounds; valid only when non-empty.
  void Bounds(geom::Vec3& min_out, geom::Vec3& max_out) const;

  PointCloud Transformed(const geom::Mat4& transform) const;

  // Returns only the points inside `frustum`.
  PointCloud CulledTo(const geom::Frustum& frustum) const;

 private:
  std::vector<Point> points_;
};

// Back-projects every valid (depth > 0) pixel of every view into a world-
// frame point cloud. views[i] must correspond to cameras[i].
PointCloud ReconstructFromViews(const std::vector<image::RgbdFrame>& views,
                                const std::vector<geom::RgbdCamera>& cameras);

// Voxel-grid downsampling (§A.1 receiver-side rendering): points are
// bucketed into cubes of `voxel_size_m` and each occupied voxel is replaced
// by the centroid of its points with the average color. Voxels come out in
// the order of their first input point, and each sums its points in input
// order, so the output is a function of the input sequence alone, whatever
// the standard library. Keys are the full (x, y, z) int triple of a flat
// open-addressing table.
PointCloud VoxelDownsample(const PointCloud& cloud, double voxel_size_m);

// Exact k-nearest-neighbour index (used by the PointSSIM and point-to-point
// metrics). A dense table over the box of cubic cells the cloud occupies:
// a counting sort stores the point indices and their coordinates in (z, y,
// x) cell order, so each x-row of cells is one contiguous range. It copies
// what it needs; the cloud may go away after construction.
//
// Contract: a query returns exactly the points whose squared distance
// (Vec3::NormSq of the difference) is <= max_radius_m², ordered by
// (squared distance, index), truncated to k. Rings of cells are searched
// outward until the k-th best is closer than the next ring can be, so the
// answer does not depend on the cell size. A sparse cloud whose box would
// need more than 16 cells per point (plus a small constant) gets a
// doubled cell size until the table fits.
class GridIndex {
 public:
  struct Neighbour {
    double distance_sq = 0.0;
    int index = 0;

    bool operator<(const Neighbour& o) const {
      return distance_sq < o.distance_sq ||
             (distance_sq == o.distance_sq && index < o.index);
    }
    bool operator==(const Neighbour&) const = default;
  };

  // Throws std::invalid_argument unless cell_size_m > 0.
  GridIndex(const PointCloud& cloud, double cell_size_m);

  // Index of the nearest point to `query`, or -1 for an empty cloud.
  // `max_radius_m` bounds the search (returns -1 if nothing within it).
  int Nearest(const geom::Vec3& query, double max_radius_m = 1.0) const;

  // Indices of up to `k` nearest points within `max_radius_m`, closest
  // first; none for k <= 0.
  std::vector<int> KNearest(const geom::Vec3& query, int k,
                            double max_radius_m = 1.0) const;

  // The same search, written into `out` (cleared first) as neighbours,
  // closest first, so a caller looping over queries reuses one buffer.
  void KNearest(const geom::Vec3& query, int k, double max_radius_m,
                std::vector<Neighbour>& out) const;

  // Cell edge in use: the constructor's, or larger for a sparse cloud.
  double cell_size_m() const { return cell_size_; }

 private:
  struct CellKey {
    int x, y, z;
  };

  CellKey KeyFor(const geom::Vec3& p) const;
  // Offers the points of cells [x_lo, x_hi] of the row starting at table
  // cell `row` (the cell of x = lo_.x) to the max-heap `out`.
  void ScanRow(std::size_t row, int x_lo, int x_hi, const geom::Vec3& query,
               double max_distance_sq, std::size_t k,
               std::vector<Neighbour>& out) const;

  double cell_size_;
  CellKey lo_{}, hi_{};  // occupied box, inclusive cell keys
  std::size_t nx_ = 0, ny_ = 0;
  // Points of table cell c are [cell_start_[c], cell_start_[c + 1]) of the
  // arrays below.
  std::vector<int> cell_start_;
  std::vector<int> index_;
  std::vector<double> x_, y_, z_;
};

}  // namespace livo::pointcloud
