#include "conference/topology.h"

#include <cmath>

#include "geom/pose.h"

namespace livo::conference {
namespace {

// Capture volume around a seat, and the k of its k^3 visibility lattice.
constexpr geom::Vec3 kContentMin{-1.5, 0.0, -1.5};
constexpr geom::Vec3 kContentMax{1.5, 2.2, 1.5};
constexpr int kSamplesPerAxis = 4;

}  // namespace

geom::Vec3 SeatPosition(int slot, int remote_count) {
  if (remote_count <= 1) return {0.0, 0.0, 0.0};
  const double angle =
      2.0 * geom::kPi * static_cast<double>(slot) / remote_count;
  return {kSeatRadiusM * std::sin(angle), 0.0, kSeatRadiusM * std::cos(angle)};
}

double VisibleFraction(const geom::Frustum& frustum,
                       const geom::Vec3& seat_offset) {
  constexpr int k = kSamplesPerAxis;
  const geom::Vec3 lo = kContentMin + seat_offset;
  const geom::Vec3 hi = kContentMax + seat_offset;
  int inside = 0;
  for (int ix = 0; ix < k; ++ix) {
    for (int iy = 0; iy < k; ++iy) {
      for (int iz = 0; iz < k; ++iz) {
        // Cell centres of a k^3 lattice spanning the box.
        const double fx = (ix + 0.5) / k;
        const double fy = (iy + 0.5) / k;
        const double fz = (iz + 0.5) / k;
        const geom::Vec3 p{lo.x + fx * (hi.x - lo.x),
                           lo.y + fy * (hi.y - lo.y),
                           lo.z + fz * (hi.z - lo.z)};
        if (frustum.Contains(p)) ++inside;
      }
    }
  }
  return static_cast<double>(inside) / (k * k * k);
}

}  // namespace livo::conference
