// Triangle-mesh substrate for the MeshReduce baseline (§4.1).
//
// "MeshReduce is a mesh-based full-scene live volumetric video streaming
// system... The sender captures a RGB-D frame from off-the-shelf RGB-D
// cameras, reconstructs a per-frame mesh, encodes the geometry and color
// separately, and transmits over 2 TCP socket connections."
//
// The mesher triangulates each depth image on a regular grid (stride =
// decimation factor; larger stride = coarser mesh = fewer triangles, the
// knob MeshReduce turns to fit lower bandwidth), skipping quads that span
// depth discontinuities. Geometry is coded by vertex quantization +
// delta coding; per-vertex colors are quantized and delta-coded (standing
// in for the H.264 texture stream). For PSSIM comparison, meshes are
// sampled back to point clouds with as many points as the reference
// (§4.1 "we sample as many points from the rendered mesh as there are in
// the ground truth point cloud").
#pragma once

#include <cstdint>
#include <vector>

#include "geom/camera.h"
#include "geom/frustum.h"
#include "image/image.h"
#include "pointcloud/pointcloud.h"

namespace livo::mesh {

struct Vertex {
  geom::Vec3 position;
  pointcloud::PointColor color;
};

struct Triangle {
  std::uint32_t a = 0, b = 0, c = 0;
};

struct TriangleMesh {
  std::vector<Vertex> vertices;
  std::vector<Triangle> triangles;

  bool empty() const { return triangles.empty(); }
  double SurfaceArea() const;
};

struct MesherConfig {
  int stride = 2;                      // grid decimation factor (>= 1)
};

// Triangulates the depth grids of all views into one world-frame mesh.
TriangleMesh MeshFromViews(const std::vector<image::RgbdFrame>& views,
                           const std::vector<geom::RgbdCamera>& cameras,
                           const MesherConfig& config);

struct MeshCodecConfig {
  int position_bits = 11;  // geometry quantization
  int color_bits = 6;
};

struct EncodedMesh {
  std::vector<std::uint8_t> geometry;  // Draco-like stream (TCP link 1)
  std::vector<std::uint8_t> texture;   // color stream (TCP link 2)
  std::size_t triangle_count = 0;

  std::size_t TotalBytes() const { return geometry.size() + texture.size(); }
};

EncodedMesh EncodeMesh(const TriangleMesh& mesh, const MeshCodecConfig& config);
TriangleMesh DecodeMesh(const EncodedMesh& encoded);

// Samples `count` points uniformly by area from the mesh surface,
// interpolating vertex colors. Deterministic in `seed`.
pointcloud::PointCloud SampleMesh(const TriangleMesh& mesh, std::size_t count,
                                  std::uint64_t seed = 7);

// Keeps only the triangles with at least one vertex inside `frustum`
// (used to sample mesh quality against a frustum-culled reference cloud
// at matched density).
TriangleMesh CullMeshToFrustum(const TriangleMesh& mesh,
                               const geom::Frustum& frustum);

// Deterministic paper-scale encode-time model: MeshReduce "fully utilizes
// all cores on the sender to encode frames" yet reaches only ~12 fps on
// full scenes; per-frame cost is linear in triangle count.
double ModelMeshEncodeTimeMs(std::size_t triangle_count,
                             double triangle_scale = 1.0);

}  // namespace livo::mesh
