#include "pointcloud/pointcloud.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace livo::pointcloud {

geom::Vec3 PointCloud::Centroid() const {
  geom::Vec3 sum;
  if (points_.empty()) return sum;
  for (const Point& p : points_) sum += p.position;
  return sum / static_cast<double>(points_.size());
}

void PointCloud::Bounds(geom::Vec3& min_out, geom::Vec3& max_out) const {
  constexpr double inf = std::numeric_limits<double>::infinity();
  min_out = {inf, inf, inf};
  max_out = {-inf, -inf, -inf};
  for (const Point& p : points_) {
    min_out.x = std::min(min_out.x, p.position.x);
    min_out.y = std::min(min_out.y, p.position.y);
    min_out.z = std::min(min_out.z, p.position.z);
    max_out.x = std::max(max_out.x, p.position.x);
    max_out.y = std::max(max_out.y, p.position.y);
    max_out.z = std::max(max_out.z, p.position.z);
  }
}

PointCloud PointCloud::Transformed(const geom::Mat4& transform) const {
  PointCloud out;
  out.Reserve(points_.size());
  for (const Point& p : points_) {
    out.Add({transform.TransformPoint(p.position), p.color});
  }
  return out;
}

PointCloud PointCloud::CulledTo(const geom::Frustum& frustum) const {
  PointCloud out;
  out.Reserve(points_.size());
  for (const Point& p : points_) {
    if (frustum.Contains(p.position)) out.Add(p);
  }
  return out;
}

PointCloud ReconstructFromViews(const std::vector<image::RgbdFrame>& views,
                                const std::vector<geom::RgbdCamera>& cameras) {
  PointCloud cloud;
  std::size_t estimate = 0;
  for (const auto& v : views) estimate += v.depth.size() / 2;
  cloud.Reserve(estimate);

  for (std::size_t i = 0; i < views.size() && i < cameras.size(); ++i) {
    const image::RgbdFrame& view = views[i];
    const geom::RgbdCamera& cam = cameras[i];
    const geom::Mat4 to_world = cam.extrinsics.CameraToWorld();
    for (int y = 0; y < view.height(); ++y) {
      const std::uint16_t* depth_row = view.depth.row(y);
      const std::uint8_t* r_row = view.color.r.row(y);
      const std::uint8_t* g_row = view.color.g.row(y);
      const std::uint8_t* b_row = view.color.b.row(y);
      for (int x = 0; x < view.width(); ++x) {
        const std::uint16_t d = depth_row[x];
        if (d == 0) continue;  // no return / culled
        const double depth_m = d / 1000.0;
        if (depth_m < cam.min_depth_m || depth_m > cam.max_depth_m) continue;
        const geom::Vec3 local =
            cam.intrinsics.Unproject(x + 0.5, y + 0.5, depth_m);
        cloud.Add({to_world.TransformPoint(local),
                   {r_row[x], g_row[x], b_row[x]}});
      }
    }
  }
  return cloud;
}

namespace {

struct VoxelKey {
  int x, y, z;
  bool operator==(const VoxelKey&) const = default;
};

// Mixes all 96 key bits into the top bits of a 64-bit word, which index
// the table (Fibonacci hashing).
std::uint64_t VoxelHash(const VoxelKey& k) {
  std::uint64_t h = static_cast<std::uint32_t>(k.x) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint32_t>(k.y) * 0xc2b2ae3d27d4eb4full;
  h ^= static_cast<std::uint32_t>(k.z) * 0x165667b19e3779f9ull;
  h ^= h >> 29;
  return h * 0xbf58476d1ce4e5b9ull;
}

}  // namespace

PointCloud VoxelDownsample(const PointCloud& cloud, double voxel_size_m) {
  struct Voxel {
    VoxelKey key;
    geom::Vec3 position_sum;
    double r = 0, g = 0, b = 0;
    int count = 0;
  };

  if (cloud.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("VoxelDownsample: more than 2^32 - 2 points");
  }
  // Voxels in the order of their first point. `slots` is an open-
  // addressing table with linear probing: 0 is an empty slot, v names
  // voxels[v - 1]. It has at least twice as many slots as points, so it
  // is at most half full and every probe ends.
  std::vector<Voxel> voxels;
  voxels.reserve(cloud.size());
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(16, 2 * cloud.size()));
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<std::uint32_t> slots(capacity, 0);
  for (const Point& p : cloud.points()) {
    const VoxelKey key{
        static_cast<int>(std::floor(p.position.x / voxel_size_m)),
        static_cast<int>(std::floor(p.position.y / voxel_size_m)),
        static_cast<int>(std::floor(p.position.z / voxel_size_m))};
    std::size_t slot = static_cast<std::size_t>(VoxelHash(key) >> shift);
    while (slots[slot] != 0 && voxels[slots[slot] - 1].key != key) {
      slot = (slot + 1) & (capacity - 1);
    }
    if (slots[slot] == 0) {
      voxels.emplace_back().key = key;
      slots[slot] = static_cast<std::uint32_t>(voxels.size());
    }
    Voxel& v = voxels[slots[slot] - 1];
    v.position_sum += p.position;
    v.r += p.color.r;
    v.g += p.color.g;
    v.b += p.color.b;
    ++v.count;
  }

  PointCloud out;
  out.Reserve(voxels.size());
  for (const Voxel& v : voxels) {
    const double n = v.count;
    out.Add({v.position_sum / n,
             {static_cast<std::uint8_t>(std::lround(v.r / n)),
              static_cast<std::uint8_t>(std::lround(v.g / n)),
              static_cast<std::uint8_t>(std::lround(v.b / n))}});
  }
  return out;
}

namespace {

// Box-size guard: a table may hold up to this many cells per point, plus
// kCellSlack, before the cell edge doubles.
constexpr double kMaxCellsPerPoint = 16.0;
constexpr double kCellSlack = 64.0;

}  // namespace

GridIndex::GridIndex(const PointCloud& cloud, double cell_size_m)
    : cell_size_(cell_size_m) {
  if (!(cell_size_m > 0.0)) {
    throw std::invalid_argument("GridIndex: cell_size_m must be positive");
  }
  if (cloud.empty()) return;

  geom::Vec3 lo, hi;
  cloud.Bounds(lo, hi);
  // floor(v / cell) is monotone in v, so the box of occupied cells spans
  // the keys of the bounds. Counted in double: a sparse cloud's box can
  // exceed any integer type before the guard shrinks it.
  const auto box_cells = [&] {
    const auto span = [this](double a, double b) {
      return std::floor(b / cell_size_) - std::floor(a / cell_size_) + 1.0;
    };
    return span(lo.x, hi.x) * span(lo.y, hi.y) * span(lo.z, hi.z);
  };
  const double max_cells =
      kMaxCellsPerPoint * static_cast<double>(cloud.size()) + kCellSlack;
  while (box_cells() > max_cells) cell_size_ *= 2.0;
  lo_ = KeyFor(lo);
  hi_ = KeyFor(hi);
  nx_ = static_cast<std::size_t>(hi_.x - lo_.x) + 1;
  ny_ = static_cast<std::size_t>(hi_.y - lo_.y) + 1;
  const std::size_t nz = static_cast<std::size_t>(hi_.z - lo_.z) + 1;

  // Counting sort by table cell: count into cell_start_[c + 1], prefix-sum
  // to starts, place each point at its cell's cursor (which leaves each
  // start at the next cell's), then shift the starts back.
  const std::vector<Point>& points = cloud.points();
  std::vector<std::size_t> cell_of(points.size());
  cell_start_.assign(nx_ * ny_ * nz + 1, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CellKey key = KeyFor(points[i].position);
    cell_of[i] = (static_cast<std::size_t>(key.z - lo_.z) * ny_ +
                  static_cast<std::size_t>(key.y - lo_.y)) *
                     nx_ +
                 static_cast<std::size_t>(key.x - lo_.x);
    ++cell_start_[cell_of[i] + 1];
  }
  std::partial_sum(cell_start_.begin(), cell_start_.end(), cell_start_.begin());
  index_.resize(points.size());
  x_.resize(points.size());
  y_.resize(points.size());
  z_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto slot = static_cast<std::size_t>(cell_start_[cell_of[i]]++);
    index_[slot] = static_cast<int>(i);
    x_[slot] = points[i].position.x;
    y_[slot] = points[i].position.y;
    z_[slot] = points[i].position.z;
  }
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 1,
                     cell_start_.end());
  cell_start_[0] = 0;
}

GridIndex::CellKey GridIndex::KeyFor(const geom::Vec3& p) const {
  return {static_cast<int>(std::floor(p.x / cell_size_)),
          static_cast<int>(std::floor(p.y / cell_size_)),
          static_cast<int>(std::floor(p.z / cell_size_))};
}

int GridIndex::Nearest(const geom::Vec3& query, double max_radius_m) const {
  std::vector<Neighbour> found;
  KNearest(query, 1, max_radius_m, found);
  return found.empty() ? -1 : found.front().index;
}

std::vector<int> GridIndex::KNearest(const geom::Vec3& query, int k,
                                     double max_radius_m) const {
  std::vector<Neighbour> found;
  KNearest(query, k, max_radius_m, found);
  std::vector<int> result;
  result.reserve(found.size());
  for (const Neighbour& n : found) result.push_back(n.index);
  return result;
}

void GridIndex::KNearest(const geom::Vec3& query, int k, double max_radius_m,
                         std::vector<Neighbour>& out) const {
  out.clear();
  if (k <= 0 || index_.empty()) return;
  const auto kk = static_cast<std::size_t>(k);
  const double max_distance_sq = max_radius_m * max_radius_m;
  const CellKey center = KeyFor(query);
  const int max_ring = static_cast<int>(std::ceil(max_radius_m / cell_size_));

  // Expand rings of cells outward; stop once the k-th best distance is
  // smaller than the closest possible point in the next ring. `out` is a
  // max-heap of the best k so far, so its front is the k-th best.
  for (int ring = 0; ring <= max_ring; ++ring) {
    const double ring_min_dist = (ring - 1) * cell_size_;
    if (out.size() == kk &&
        out.front().distance_sq < ring_min_dist * ring_min_dist) {
      break;
    }
    // Only the shell of the ring (the interior was visited earlier),
    // clipped to the occupied box.
    const int x_lo = std::max(center.x - ring, lo_.x);
    const int x_hi = std::min(center.x + ring, hi_.x);
    const int y_lo = std::max(center.y - ring, lo_.y);
    const int y_hi = std::min(center.y + ring, hi_.y);
    const int z_lo = std::max(center.z - ring, lo_.z);
    const int z_hi = std::min(center.z + ring, hi_.z);
    if (x_lo > x_hi) continue;
    for (int z = z_lo; z <= z_hi; ++z) {
      const bool z_face = std::abs(z - center.z) == ring;
      for (int y = y_lo; y <= y_hi; ++y) {
        const std::size_t row = (static_cast<std::size_t>(z - lo_.z) * ny_ +
                                 static_cast<std::size_t>(y - lo_.y)) *
                                nx_;
        if (z_face || std::abs(y - center.y) == ring) {
          ScanRow(row, x_lo, x_hi, query, max_distance_sq, kk, out);
          continue;
        }
        // Inside the shell's z and y faces only the row's two end cells
        // are on the shell.
        if (x_lo == center.x - ring) {
          ScanRow(row, x_lo, x_lo, query, max_distance_sq, kk, out);
        }
        if (x_hi == center.x + ring) {
          ScanRow(row, x_hi, x_hi, query, max_distance_sq, kk, out);
        }
      }
    }
  }
  std::sort_heap(out.begin(), out.end());
}

void GridIndex::ScanRow(std::size_t row, int x_lo, int x_hi,
                        const geom::Vec3& query, double max_distance_sq,
                        std::size_t k, std::vector<Neighbour>& out) const {
  const int begin = cell_start_[row + static_cast<std::size_t>(x_lo - lo_.x)];
  const int end = cell_start_[row + static_cast<std::size_t>(x_hi - lo_.x) + 1];
  for (int j = begin; j < end; ++j) {
    const auto s = static_cast<std::size_t>(j);
    const double d2 = (geom::Vec3{x_[s], y_[s], z_[s]} - query).NormSq();
    if (!(d2 <= max_distance_sq)) continue;
    const Neighbour candidate{d2, index_[s]};
    if (out.size() < k) {
      out.push_back(candidate);
      std::push_heap(out.begin(), out.end());
    } else if (candidate < out.front()) {
      std::pop_heap(out.begin(), out.end());
      out.back() = candidate;
      std::push_heap(out.begin(), out.end());
    }
  }
}

}  // namespace livo::pointcloud
