#include "sim/scene.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/thread_pool.h"

namespace livo::sim {
namespace {

using geom::Mat4;
using geom::Pose;
using geom::Quat;
using geom::Vec3;

constexpr double kTau = 6.28318530717958647692;

// Texel noise: +/- this many levels per color channel.
constexpr double kTextureNoiseAmplitude = 8.0;
// Depth sensor noise stddev: a floor plus a share growing with range (ToF
// behaviour).
constexpr double kDepthNoiseBaseMm = 2.0;
constexpr double kDepthNoiseMmPerM = 1.0;

// Deterministic 32-bit hash (for texture noise and sensor noise).
std::uint32_t Hash32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7feb352du;
  x ^= x >> 15;
  x *= 0x846ca68bu;
  x ^= x >> 16;
  return x;
}

std::uint32_t HashCombine(std::uint32_t a, std::uint32_t b) {
  return Hash32(a ^ (b + 0x9e3779b9u + (a << 6) + (a >> 2)));
}

// Uniform [-1, 1) from a hash.
double HashSigned(std::uint32_t h) {
  return (Hash32(h) / 2147483648.0) - 1.0;
}

// Ray / unit-sphere after anisotropic scaling: solve |o + t d|^2 = 1 in the
// scaled frame; t keeps its world meaning because origin and direction are
// scaled consistently.
std::optional<double> IntersectEllipsoidLocal(const Vec3& o, const Vec3& d,
                                              const Vec3& half) {
  const Vec3 so{o.x / half.x, o.y / half.y, o.z / half.z};
  const Vec3 sd{d.x / half.x, d.y / half.y, d.z / half.z};
  const double a = sd.Dot(sd);
  const double b = 2.0 * so.Dot(sd);
  const double c = so.Dot(so) - 1.0;
  const double disc = b * b - 4 * a * c;
  if (disc < 0.0) return std::nullopt;
  const double sq = std::sqrt(disc);
  const double t0 = (-b - sq) / (2 * a);
  const double t1 = (-b + sq) / (2 * a);
  if (t0 > 1e-6) return t0;
  if (t1 > 1e-6) return t1;
  return std::nullopt;
}

std::optional<double> IntersectBoxLocal(const Vec3& o, const Vec3& d,
                                        const Vec3& half) {
  double tmin = -std::numeric_limits<double>::infinity();
  double tmax = std::numeric_limits<double>::infinity();
  const double os[3] = {o.x, o.y, o.z};
  const double ds[3] = {d.x, d.y, d.z};
  const double hs[3] = {half.x, half.y, half.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (std::abs(ds[axis]) < 1e-12) {
      if (std::abs(os[axis]) > hs[axis]) return std::nullopt;
      continue;
    }
    double t0 = (-hs[axis] - os[axis]) / ds[axis];
    double t1 = (hs[axis] - os[axis]) / ds[axis];
    if (t0 > t1) std::swap(t0, t1);
    tmin = std::max(tmin, t0);
    tmax = std::min(tmax, t1);
    if (tmin > tmax) return std::nullopt;
  }
  if (tmin > 1e-6) return tmin;
  if (tmax > 1e-6) return tmax;
  return std::nullopt;
}

// Capped cylinder with axis +Y, radius half.x, half height half.y.
std::optional<double> IntersectCylinderLocal(const Vec3& o, const Vec3& d,
                                             const Vec3& half) {
  const double r = half.x, h = half.y;
  double best = std::numeric_limits<double>::infinity();

  // Side surface: x^2 + z^2 = r^2.
  const double a = d.x * d.x + d.z * d.z;
  if (a > 1e-12) {
    const double b = 2.0 * (o.x * d.x + o.z * d.z);
    const double c = o.x * o.x + o.z * o.z - r * r;
    const double disc = b * b - 4 * a * c;
    if (disc >= 0.0) {
      const double sq = std::sqrt(disc);
      for (double t : {(-b - sq) / (2 * a), (-b + sq) / (2 * a)}) {
        if (t > 1e-6 && t < best && std::abs(o.y + t * d.y) <= h) best = t;
      }
    }
  }
  // Caps at y = +/- h.
  if (std::abs(d.y) > 1e-12) {
    for (double cap_y : {h, -h}) {
      const double t = (cap_y - o.y) / d.y;
      if (t > 1e-6 && t < best) {
        const double x = o.x + t * d.x, z = o.z + t * d.z;
        if (x * x + z * z <= r * r) best = t;
      }
    }
  }
  if (std::isinf(best)) return std::nullopt;
  return best;
}

// Approximate outward surface normal of a primitive at a local point.
Vec3 LocalNormal(const Primitive& prim, const Vec3& local) {
  switch (prim.kind) {
    case PrimitiveKind::kEllipsoid:
      return Vec3{local.x / (prim.half_size.x * prim.half_size.x),
                  local.y / (prim.half_size.y * prim.half_size.y),
                  local.z / (prim.half_size.z * prim.half_size.z)}
          .Normalized();
    case PrimitiveKind::kBox: {
      // Normal of the face whose plane the point is closest to.
      const double dx = prim.half_size.x - std::abs(local.x);
      const double dy = prim.half_size.y - std::abs(local.y);
      const double dz = prim.half_size.z - std::abs(local.z);
      if (dx <= dy && dx <= dz) return {local.x > 0 ? 1.0 : -1.0, 0, 0};
      if (dy <= dz) return {0, local.y > 0 ? 1.0 : -1.0, 0};
      return {0, 0, local.z > 0 ? 1.0 : -1.0};
    }
    case PrimitiveKind::kCylinder: {
      if (std::abs(local.y) >= prim.half_size.y - 1e-6) {
        return {0, local.y > 0 ? 1.0 : -1.0, 0};
      }
      return Vec3{local.x, 0, local.z}.Normalized();
    }
  }
  return {0, 1, 0};
}

// Radius of a sphere about the primitive's local origin that encloses its
// shape, inflated so that rounding in the world-frame sphere test can never
// reject a ray the exact local-frame intersection would hit.
double BoundingRadius(const Primitive& prim) {
  const Vec3& h = prim.half_size;
  double r = 0.0;
  switch (prim.kind) {
    case PrimitiveKind::kEllipsoid:
      r = std::max({std::abs(h.x), std::abs(h.y), std::abs(h.z)});
      break;
    case PrimitiveKind::kBox:
      r = h.Norm();  // the corners
      break;
    case PrimitiveKind::kCylinder:
      r = std::hypot(h.x, h.y);  // the rims
      break;
  }
  return r * (1.0 + 1e-9) + 1e-6;
}

// One primitive posed at one instant and seen from one ray origin: what
// every ray from that origin (a camera's rays, or one traced ray) shares.
struct PosedPrimitive {
  const Primitive* prim = nullptr;
  Mat4 to_local;
  Vec3 local_origin;       // the ray origin in the primitive's frame
  Vec3 to_center;          // world vector from the ray origin to the centre
  double outside_sq = 0.0; // |to_center|^2 - radius^2; > 0 when outside
};

std::vector<PosedPrimitive> PosePrimitives(
    const std::vector<Primitive>& primitives, const Vec3& origin,
    double t_s) {
  std::vector<PosedPrimitive> posed;
  posed.reserve(primitives.size());
  for (const Primitive& prim : primitives) {
    const Pose pose = prim.PoseAt(t_s);
    PosedPrimitive p;
    p.prim = &prim;
    p.to_local = pose.WorldToLocal();
    p.local_origin = p.to_local.TransformPoint(origin);
    p.to_center = pose.position - origin;
    const double radius = BoundingRadius(prim);
    p.outside_sq = p.to_center.Dot(p.to_center) - radius * radius;
    posed.push_back(p);
  }
  return posed;
}

// Nearest hit of the ray (origin, dir) among primitives posed for `origin`.
// A ray skips a primitive only when the origin lies outside its bounding
// sphere and the ray either points away from the centre or passes farther
// from it than the radius; the rest get the exact intersection, in
// primitive order, and a later primitive wins only when strictly nearer.
std::optional<RayHit> TracePosed(const std::vector<PosedPrimitive>& posed,
                                 const Vec3& origin, const Vec3& dir) {
  const double dir_sq = dir.Dot(dir);
  std::optional<RayHit> best;
  for (const PosedPrimitive& p : posed) {
    const double along = p.to_center.Dot(dir);
    // Closest approach^2 = |to_center|^2 - along^2 / dir_sq > radius^2.
    if (p.outside_sq > 0.0 &&
        (along < 0.0 || p.outside_sq * dir_sq > along * along)) {
      continue;
    }
    const Vec3& lo = p.local_origin;
    const Vec3 ld = p.to_local.TransformDirection(dir);

    std::optional<double> t;
    switch (p.prim->kind) {
      case PrimitiveKind::kEllipsoid:
        t = IntersectEllipsoidLocal(lo, ld, p.prim->half_size);
        break;
      case PrimitiveKind::kBox:
        t = IntersectBoxLocal(lo, ld, p.prim->half_size);
        break;
      case PrimitiveKind::kCylinder:
        t = IntersectCylinderLocal(lo, ld, p.prim->half_size);
        break;
    }
    if (!t) continue;
    if (!best || *t < best->t) {
      RayHit hit;
      hit.t = *t;
      hit.position = origin + dir * *t;
      hit.local = lo + ld * *t;
      hit.primitive = p.prim;
      best = hit;
    }
  }
  return best;
}

}  // namespace

Pose Primitive::PoseAt(double t_s) const {
  Pose pose = base_pose;
  const double w = kTau * motion.frequency_hz;
  switch (motion.kind) {
    case Motion::Kind::kStatic:
      break;
    case Motion::Kind::kSway:
      pose.position += motion.axis.Normalized() *
                       (motion.amplitude_m * std::sin(w * t_s + motion.phase));
      break;
    case Motion::Kind::kOrbit:
      pose.position += Vec3{std::cos(w * t_s + motion.phase), 0.0,
                            std::sin(w * t_s + motion.phase)} *
                       motion.amplitude_m;
      break;
    case Motion::Kind::kBounce:
      pose.position.y +=
          motion.amplitude_m * std::abs(std::sin(w * t_s + motion.phase));
      break;
    case Motion::Kind::kWander:
      pose.position += Vec3{std::sin(w * t_s + motion.phase),
                            0.0,
                            std::sin(0.73 * w * t_s + 1.3 * motion.phase)} *
                       motion.amplitude_m;
      break;
  }
  if (motion.yaw_amplitude != 0.0) {
    const double yaw =
        motion.yaw_amplitude * std::sin(0.8 * w * t_s + motion.phase);
    pose.orientation =
        Quat::FromAxisAngle({0, 1, 0}, yaw) * pose.orientation;
  }
  return pose;
}

std::optional<RayHit> Scene::Trace(const Vec3& origin, const Vec3& dir,
                                   double t_s) const {
  return TracePosed(PosePrimitives(primitives_, origin, t_s), origin, dir);
}

void ShadeHit(const RayHit& hit, std::uint8_t& r, std::uint8_t& g,
              std::uint8_t& b) {
  const Primitive& prim = *hit.primitive;
  const Texture& tex = prim.texture;

  // Stripe modulation in local coordinates.
  const double stripes =
      std::sin(hit.local.x * tex.stripe_scale * kTau) *
      std::sin((hit.local.y + 0.37) * tex.stripe_scale * kTau * 0.7);
  double shade = 1.0 + tex.stripe_contrast * stripes;

  // Lambert lighting from a fixed overhead-diagonal light.
  const Vec3 light = Vec3{0.35, 0.85, 0.4}.Normalized();
  const Vec3 normal = LocalNormal(prim, hit.local);
  const double lambert = 0.55 + 0.45 * std::max(0.0, normal.Dot(light));
  shade *= lambert;

  // Deterministic texel noise keyed on quantized local position.
  const auto quant = [](double v) {
    return static_cast<std::uint32_t>(
        static_cast<std::int64_t>(std::llround(v * 200.0)) & 0xffffffff);
  };
  const std::uint32_t h = HashCombine(
      HashCombine(quant(hit.local.x), quant(hit.local.y)),
      HashCombine(quant(hit.local.z), tex.noise_seed));
  const double noise = HashSigned(h) * kTextureNoiseAmplitude;

  const auto apply = [&](std::uint8_t base) {
    return static_cast<std::uint8_t>(
        std::clamp(std::lround(base * shade + noise), 0l, 255l));
  };
  r = apply(tex.r);
  g = apply(tex.g);
  b = apply(tex.b);
}

image::RgbdFrame RenderView(const Scene& scene, const geom::RgbdCamera& camera,
                            double t_s, std::uint32_t frame_index,
                            std::uint32_t camera_index, bool sensor_noise) {
  const auto& k = camera.intrinsics;
  image::RgbdFrame frame(k.width, k.height);
  const Mat4 to_world = camera.extrinsics.CameraToWorld();
  const Vec3 origin = camera.extrinsics.pose.position;
  const Vec3 fwd = camera.extrinsics.pose.Forward();
  const std::vector<PosedPrimitive> posed =
      PosePrimitives(scene.primitives(), origin, t_s);

  for (int y = 0; y < k.height; ++y) {
    for (int x = 0; x < k.width; ++x) {
      const Vec3 local_dir = k.Unproject(x + 0.5, y + 0.5, 1.0);
      const Vec3 dir = to_world.TransformDirection(local_dir).Normalized();
      const auto hit = TracePosed(posed, origin, dir);
      if (!hit) continue;  // depth stays 0 (no return), color stays black

      // Sensor depth is distance along the optical axis (z-depth), the
      // quantity a ToF depth image reports.
      double depth_m = (hit->position - origin).Dot(fwd);
      if (depth_m < camera.min_depth_m || depth_m > camera.max_depth_m) {
        continue;
      }
      if (sensor_noise) {
        const std::uint32_t h = HashCombine(
            HashCombine(frame_index, camera_index),
            HashCombine(static_cast<std::uint32_t>(x),
                        static_cast<std::uint32_t>(y) * 40503u));
        // Sum of two uniforms approximates a triangular (near-Gaussian)
        // distribution without trig.
        const double u =
            (HashSigned(h) + HashSigned(h ^ 0x5bd1e995u)) / 2.0;
        const double stddev_mm =
            kDepthNoiseBaseMm + kDepthNoiseMmPerM * depth_m;
        depth_m += u * stddev_mm * 1.7 / 1000.0;
      }
      const long depth_mm = std::lround(depth_m * 1000.0);
      if (depth_mm <= 0 || depth_mm > 65535) continue;
      frame.depth.at(x, y) = static_cast<std::uint16_t>(depth_mm);

      std::uint8_t r, g, b;
      ShadeHit(*hit, r, g, b);
      frame.color.SetPixel(x, y, r, g, b);
    }
  }
  return frame;
}

std::vector<image::RgbdFrame> RenderRig(const Scene& scene,
                                        const std::vector<geom::RgbdCamera>& rig,
                                        double t_s,
                                        std::uint32_t frame_index) {
  // Views are independent (the paper parallelizes view generation the same
  // way, §A.1), and each task writes only its own slot.
  std::vector<image::RgbdFrame> views(rig.size());
  util::SharedPool().ParallelFor(
      static_cast<int>(rig.size()), 0, [&](int i) {
        const auto camera = static_cast<std::size_t>(i);
        views[camera] = RenderView(scene, rig[camera], t_s, frame_index,
                                   static_cast<std::uint32_t>(i));
      });
  return views;
}

}  // namespace livo::sim
