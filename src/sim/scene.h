// Synthetic animated 3D scenes rendered to RGB-D frames.
//
// Substitute for the Azure Kinect capture rig + CMU Panoptic dataset (see
// DESIGN.md §1): scenes are collections of animated textured primitives
// (people approximated by ellipsoid assemblies, furniture by boxes and
// cylinders, plus the floor) ray-cast through calibrated pinhole cameras
// with a z-buffer-equivalent nearest-hit rule and millimetre depth
// quantization with mild sensor noise. What matters downstream — pixel-
// aligned color/16-bit-depth views of a common scene with controllable
// complexity and motion — is preserved.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "geom/camera.h"
#include "geom/pose.h"
#include "geom/vec.h"
#include "image/image.h"

namespace livo::sim {

enum class PrimitiveKind { kEllipsoid, kBox, kCylinder };

// Rigid-body animation of a primitive around its base pose.
struct Motion {
  enum class Kind { kStatic, kSway, kOrbit, kBounce, kWander };
  Kind kind = Kind::kStatic;
  double amplitude_m = 0.0;   // spatial extent of the motion
  double frequency_hz = 0.0;  // cycles per second
  double phase = 0.0;         // radians
  geom::Vec3 axis{1, 0, 0};   // sway axis / orbit plane normal is +Y
  double yaw_amplitude = 0.0; // radians of oscillating yaw
};

// Procedural surface texture: base color modulated by stripes and
// deterministic per-texel noise (+/- 8 levels per channel) so the video
// codec sees realistic detail.
struct Texture {
  std::uint8_t r = 180, g = 180, b = 180;
  double stripe_scale = 6.0;     // stripes per local unit
  double stripe_contrast = 0.25; // 0 = flat color
  std::uint32_t noise_seed = 1;
};

struct Primitive {
  PrimitiveKind kind = PrimitiveKind::kEllipsoid;
  geom::Pose base_pose;
  geom::Vec3 half_size{0.1, 0.1, 0.1};  // semi-axes / half extents / (r, h, r)
  Texture texture;
  Motion motion;

  // World pose at time t (seconds).
  geom::Pose PoseAt(double t_s) const;
};

// Result of a ray hit: world position, travel distance and surface texel.
struct RayHit {
  double t = 0.0;            // metres along the (unit) ray
  geom::Vec3 position;       // world-frame hit point
  geom::Vec3 local;          // primitive-local hit point (for texturing)
  const Primitive* primitive = nullptr;
};

class Scene {
 public:
  Scene() = default;
  explicit Scene(std::vector<Primitive> primitives)
      : primitives_(std::move(primitives)) {}

  std::vector<Primitive>& primitives() { return primitives_; }
  const std::vector<Primitive>& primitives() const { return primitives_; }

  // Nearest intersection of the world-space ray (origin, unit dir) with any
  // primitive at time t_s; nullopt if the ray escapes.
  std::optional<RayHit> Trace(const geom::Vec3& origin, const geom::Vec3& dir,
                              double t_s) const;

 private:
  std::vector<Primitive> primitives_;
};

// Renders one RGB-D view of `scene` at time t_s through `camera`. With
// `sensor_noise` the depth carries the ToF noise model: zero-mean,
// near-Gaussian, a 2 mm standard deviation plus 1 mm per metre of range.
// `frame_index` and `camera_index` seed that noise, so it is deterministic
// per (frame, camera, pixel) and replays are identical across schemes.
image::RgbdFrame RenderView(const Scene& scene, const geom::RgbdCamera& camera,
                            double t_s, std::uint32_t frame_index,
                            std::uint32_t camera_index,
                            bool sensor_noise = true);

// Renders all cameras of a rig (the per-frame "capture" stage), with
// sensor noise.
std::vector<image::RgbdFrame> RenderRig(const Scene& scene,
                                        const std::vector<geom::RgbdCamera>& rig,
                                        double t_s, std::uint32_t frame_index);

// Shades a surface point of a primitive (texture lookup + simple lambert
// lighting from a fixed overhead light).
void ShadeHit(const RayHit& hit, std::uint8_t& r, std::uint8_t& g,
              std::uint8_t& b);

}  // namespace livo::sim
