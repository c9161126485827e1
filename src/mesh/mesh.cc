#include "mesh/mesh.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/bitstream.h"
#include "util/rng.h"

namespace livo::mesh {
namespace {

using util::BitReader;
using util::BitWriter;

// Largest depth jump within a quad of a stride-1 grid.
constexpr double kDiscontinuityM = 0.12;

double TriangleArea(const geom::Vec3& a, const geom::Vec3& b,
                    const geom::Vec3& c) {
  return 0.5 * (b - a).Cross(c - a).Norm();
}

void AppendF64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

double ReadF64(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits = (bits << 8) | in[pos++];
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t ReadU32(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | in[pos++];
  return v;
}

}  // namespace

double TriangleMesh::SurfaceArea() const {
  double area = 0.0;
  for (const Triangle& t : triangles) {
    area += TriangleArea(vertices[t.a].position, vertices[t.b].position,
                         vertices[t.c].position);
  }
  return area;
}

TriangleMesh MeshFromViews(const std::vector<image::RgbdFrame>& views,
                           const std::vector<geom::RgbdCamera>& cameras,
                           const MesherConfig& config) {
  TriangleMesh mesh;
  const int stride = std::max(1, config.stride);

  for (std::size_t ci = 0; ci < views.size() && ci < cameras.size(); ++ci) {
    const image::RgbdFrame& view = views[ci];
    const geom::RgbdCamera& cam = cameras[ci];
    const geom::Mat4 to_world = cam.extrinsics.CameraToWorld();

    const int gw = (view.width() - 1) / stride + 1;
    const int gh = (view.height() - 1) / stride + 1;
    // Vertex index per grid node; -1 = invalid depth.
    std::vector<std::int64_t> grid(static_cast<std::size_t>(gw) * gh, -1);
    std::vector<double> grid_depth(static_cast<std::size_t>(gw) * gh, 0.0);

    for (int gy = 0; gy < gh; ++gy) {
      for (int gx = 0; gx < gw; ++gx) {
        const int x = std::min(gx * stride, view.width() - 1);
        const int y = std::min(gy * stride, view.height() - 1);
        const std::uint16_t d = view.depth.at(x, y);
        if (d == 0) continue;
        const double depth_m = d / 1000.0;
        if (depth_m < cam.min_depth_m || depth_m > cam.max_depth_m) continue;
        Vertex v;
        v.position = to_world.TransformPoint(
            cam.intrinsics.Unproject(x + 0.5, y + 0.5, depth_m));
        v.color = {view.color.r.at(x, y), view.color.g.at(x, y),
                   view.color.b.at(x, y)};
        grid[static_cast<std::size_t>(gy) * gw + gx] =
            static_cast<std::int64_t>(mesh.vertices.size());
        grid_depth[static_cast<std::size_t>(gy) * gw + gx] = depth_m;
        mesh.vertices.push_back(v);
      }
    }

    // Two triangles per quad whose four corners are valid and whose depth
    // spread stays below the discontinuity threshold (no bridging between
    // foreground and background surfaces).
    for (int gy = 0; gy + 1 < gh; ++gy) {
      for (int gx = 0; gx + 1 < gw; ++gx) {
        const std::size_t i00 = static_cast<std::size_t>(gy) * gw + gx;
        const std::size_t i10 = i00 + 1;
        const std::size_t i01 = i00 + static_cast<std::size_t>(gw);
        const std::size_t i11 = i01 + 1;
        if (grid[i00] < 0 || grid[i10] < 0 || grid[i01] < 0 || grid[i11] < 0) {
          continue;
        }
        const double dmin = std::min(
            {grid_depth[i00], grid_depth[i10], grid_depth[i01], grid_depth[i11]});
        const double dmax = std::max(
            {grid_depth[i00], grid_depth[i10], grid_depth[i01], grid_depth[i11]});
        // A coarser grid legitimately spans more depth per quad; scale the
        // discontinuity threshold with the stride so decimated meshes stay
        // connected on sloped surfaces and only true silhouette jumps cut.
        if (dmax - dmin > kDiscontinuityM * stride) continue;
        mesh.triangles.push_back({static_cast<std::uint32_t>(grid[i00]),
                                  static_cast<std::uint32_t>(grid[i10]),
                                  static_cast<std::uint32_t>(grid[i01])});
        mesh.triangles.push_back({static_cast<std::uint32_t>(grid[i10]),
                                  static_cast<std::uint32_t>(grid[i11]),
                                  static_cast<std::uint32_t>(grid[i01])});
      }
    }
  }
  return mesh;
}

EncodedMesh EncodeMesh(const TriangleMesh& mesh, const MeshCodecConfig& config) {
  EncodedMesh out;
  out.triangle_count = mesh.triangles.size();
  if (mesh.vertices.empty()) {
    out.geometry.push_back(0);
    return out;
  }

  geom::Vec3 lo{1e30, 1e30, 1e30}, hi{-1e30, -1e30, -1e30};
  for (const Vertex& v : mesh.vertices) {
    lo.x = std::min(lo.x, v.position.x);
    lo.y = std::min(lo.y, v.position.y);
    lo.z = std::min(lo.z, v.position.z);
    hi.x = std::max(hi.x, v.position.x);
    hi.y = std::max(hi.y, v.position.y);
    hi.z = std::max(hi.z, v.position.z);
  }
  const double extent =
      std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1e-6});
  const auto cells = static_cast<std::uint32_t>(1u << config.position_bits);
  const double cell = extent / cells;

  // Geometry stream: header + delta-coded quantized positions +
  // delta-coded connectivity.
  out.geometry.push_back(1);
  out.geometry.push_back(static_cast<std::uint8_t>(config.position_bits));
  AppendF64(out.geometry, lo.x);
  AppendF64(out.geometry, lo.y);
  AppendF64(out.geometry, lo.z);
  AppendF64(out.geometry, extent);
  AppendU32(out.geometry, static_cast<std::uint32_t>(mesh.vertices.size()));
  AppendU32(out.geometry, static_cast<std::uint32_t>(mesh.triangles.size()));

  BitWriter geo;
  std::int64_t prev[3] = {0, 0, 0};
  for (const Vertex& v : mesh.vertices) {
    const std::int64_t q[3] = {
        static_cast<std::int64_t>(
            std::clamp((v.position.x - lo.x) / cell, 0.0, double(cells - 1))),
        static_cast<std::int64_t>(
            std::clamp((v.position.y - lo.y) / cell, 0.0, double(cells - 1))),
        static_cast<std::int64_t>(
            std::clamp((v.position.z - lo.z) / cell, 0.0, double(cells - 1)))};
    for (int c = 0; c < 3; ++c) {
      geo.WriteSE(q[c] - prev[c]);
      prev[c] = q[c];
    }
  }
  // Connectivity: grid meshes have strong index locality. Successive
  // triangles walk the grid, so a, b, c each track their own predecessor
  // closely (c jumps by a row width once, then advances by ~1).
  std::int64_t prev_tri_a = 0, prev_tri_c = 0;
  for (const Triangle& t : mesh.triangles) {
    geo.WriteSE(static_cast<std::int64_t>(t.a) - prev_tri_a);
    geo.WriteSE(static_cast<std::int64_t>(t.b) - static_cast<std::int64_t>(t.a));
    geo.WriteSE(static_cast<std::int64_t>(t.c) - prev_tri_c);
    prev_tri_a = t.a;
    prev_tri_c = t.c;
  }
  const auto geo_bits = geo.Finish();
  out.geometry.insert(out.geometry.end(), geo_bits.begin(), geo_bits.end());

  // Texture stream: per-vertex quantized delta-coded colors.
  BitWriter tex;
  const int shift = 8 - config.color_bits;
  int prev_c[3] = {0, 0, 0};
  for (const Vertex& v : mesh.vertices) {
    const int rgb[3] = {v.color.r >> shift, v.color.g >> shift,
                        v.color.b >> shift};
    for (int c = 0; c < 3; ++c) {
      tex.WriteSE(rgb[c] - prev_c[c]);
      prev_c[c] = rgb[c];
    }
  }
  out.texture.push_back(static_cast<std::uint8_t>(config.color_bits));
  const auto tex_bits = tex.Finish();
  out.texture.insert(out.texture.end(), tex_bits.begin(), tex_bits.end());
  return out;
}

TriangleMesh DecodeMesh(const EncodedMesh& encoded) {
  TriangleMesh mesh;
  if (encoded.geometry.empty() || encoded.geometry[0] == 0) return mesh;
  std::size_t pos = 1;
  const int position_bits = encoded.geometry[pos++];
  const double lox = ReadF64(encoded.geometry, pos);
  const double loy = ReadF64(encoded.geometry, pos);
  const double loz = ReadF64(encoded.geometry, pos);
  const double extent = ReadF64(encoded.geometry, pos);
  const std::uint32_t vertex_count = ReadU32(encoded.geometry, pos);
  const std::uint32_t triangle_count = ReadU32(encoded.geometry, pos);

  const auto cells = static_cast<std::uint32_t>(1u << position_bits);
  const double cell = extent / cells;

  BitReader geo(encoded.geometry.data() + pos, encoded.geometry.size() - pos);
  mesh.vertices.resize(vertex_count);
  std::int64_t prev[3] = {0, 0, 0};
  for (std::uint32_t i = 0; i < vertex_count; ++i) {
    for (int c = 0; c < 3; ++c) prev[c] += geo.ReadSE();
    mesh.vertices[i].position = {lox + (prev[0] + 0.5) * cell,
                                 loy + (prev[1] + 0.5) * cell,
                                 loz + (prev[2] + 0.5) * cell};
  }
  mesh.triangles.resize(triangle_count);
  std::int64_t prev_tri_a = 0, prev_tri_c = 0;
  for (std::uint32_t i = 0; i < triangle_count; ++i) {
    const std::int64_t a = prev_tri_a + geo.ReadSE();
    const std::int64_t b = a + geo.ReadSE();
    const std::int64_t c = prev_tri_c + geo.ReadSE();
    mesh.triangles[i] = {static_cast<std::uint32_t>(a),
                         static_cast<std::uint32_t>(b),
                         static_cast<std::uint32_t>(c)};
    prev_tri_a = a;
    prev_tri_c = c;
  }

  if (!encoded.texture.empty()) {
    std::size_t tpos = 0;
    const int color_bits = encoded.texture[tpos++];
    const int shift = 8 - color_bits;
    BitReader tex(encoded.texture.data() + tpos,
                  encoded.texture.size() - tpos);
    int prev_c[3] = {0, 0, 0};
    for (std::uint32_t i = 0; i < vertex_count; ++i) {
      for (int c = 0; c < 3; ++c) prev_c[c] += static_cast<int>(tex.ReadSE());
      const auto expand = [&](int q) {
        return static_cast<std::uint8_t>(std::clamp(
            (q << shift) | (shift > 0 ? 1 << (shift - 1) : 0), 0, 255));
      };
      mesh.vertices[i].color = {expand(prev_c[0]), expand(prev_c[1]),
                                expand(prev_c[2])};
    }
  }
  return mesh;
}

pointcloud::PointCloud SampleMesh(const TriangleMesh& mesh, std::size_t count,
                                  std::uint64_t seed) {
  pointcloud::PointCloud cloud;
  if (mesh.triangles.empty() || count == 0) return cloud;

  // Cumulative-area table for area-uniform triangle selection.
  std::vector<double> cumulative;
  cumulative.reserve(mesh.triangles.size());
  double total = 0.0;
  for (const Triangle& t : mesh.triangles) {
    total += TriangleArea(mesh.vertices[t.a].position,
                          mesh.vertices[t.b].position,
                          mesh.vertices[t.c].position);
    cumulative.push_back(total);
  }
  if (total <= 0.0) return cloud;

  util::Rng rng(seed);
  cloud.Reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double target = rng.Uniform(0.0, total);
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), target);
    const auto ti = static_cast<std::size_t>(it - cumulative.begin());
    const Triangle& t = mesh.triangles[std::min(ti, mesh.triangles.size() - 1)];
    // Uniform barycentric sample.
    double u = rng.NextDouble(), v = rng.NextDouble();
    if (u + v > 1.0) {
      u = 1.0 - u;
      v = 1.0 - v;
    }
    const double w = 1.0 - u - v;
    const Vertex& a = mesh.vertices[t.a];
    const Vertex& b = mesh.vertices[t.b];
    const Vertex& c = mesh.vertices[t.c];
    pointcloud::Point p;
    p.position = a.position * w + b.position * u + c.position * v;
    p.color = {static_cast<std::uint8_t>(w * a.color.r + u * b.color.r +
                                         v * c.color.r),
               static_cast<std::uint8_t>(w * a.color.g + u * b.color.g +
                                         v * c.color.g),
               static_cast<std::uint8_t>(w * a.color.b + u * b.color.b +
                                         v * c.color.b)};
    cloud.Add(p);
  }
  return cloud;
}

TriangleMesh CullMeshToFrustum(const TriangleMesh& mesh,
                               const geom::Frustum& frustum) {
  TriangleMesh out;
  std::vector<std::int64_t> remap(mesh.vertices.size(), -1);
  for (const Triangle& t : mesh.triangles) {
    if (!frustum.Contains(mesh.vertices[t.a].position) &&
        !frustum.Contains(mesh.vertices[t.b].position) &&
        !frustum.Contains(mesh.vertices[t.c].position)) {
      continue;
    }
    const auto add_vertex = [&](std::uint32_t index) {
      if (remap[index] < 0) {
        remap[index] = static_cast<std::int64_t>(out.vertices.size());
        out.vertices.push_back(mesh.vertices[index]);
      }
      return static_cast<std::uint32_t>(remap[index]);
    };
    out.triangles.push_back(
        {add_vertex(t.a), add_vertex(t.b), add_vertex(t.c)});
  }
  return out;
}

double ModelMeshEncodeTimeMs(std::size_t triangle_count,
                             double triangle_scale) {
  // Calibrated so a full-scene Panoptic frame (~500k triangles after
  // MeshReduce's reconstruction) costs ~80 ms with all cores busy,
  // matching the observed ~12 fps (§4.4).
  const double tri_k = triangle_count * triangle_scale / 1000.0;
  return 4.0 + 0.155 * tri_k;
}

}  // namespace livo::mesh
