// Unit tests for livo::sim — scenes/rendering, datasets, user traces, and
// bandwidth traces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/scene.h"
#include "sim/usertrace.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace livo::sim {
namespace {

Scene SingleSphereScene(const geom::Vec3& center, double radius) {
  Primitive p;
  p.kind = PrimitiveKind::kEllipsoid;
  p.base_pose.position = center;
  p.half_size = {radius, radius, radius};
  return Scene({p});
}

TEST(SceneTrace, RayHitsSphere) {
  const Scene scene = SingleSphereScene({0, 0, -5}, 1.0);
  const auto hit = scene.Trace({0, 0, 0}, {0, 0, -1}, 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->t, 4.0, 1e-9);
  EXPECT_TRUE(geom::AlmostEqual(hit->position, {0, 0, -4}, 1e-9));
}

TEST(SceneTrace, RayMissesSphere) {
  const Scene scene = SingleSphereScene({0, 0, -5}, 1.0);
  EXPECT_FALSE(scene.Trace({0, 0, 0}, {0, 1, 0}, 0.0).has_value());
}

TEST(SceneTrace, NearestHitWins) {
  Primitive near_sphere, far_sphere;
  near_sphere.kind = far_sphere.kind = PrimitiveKind::kEllipsoid;
  near_sphere.base_pose.position = {0, 0, -3};
  far_sphere.base_pose.position = {0, 0, -6};
  near_sphere.half_size = far_sphere.half_size = {0.5, 0.5, 0.5};
  const Scene scene({far_sphere, near_sphere});
  const auto hit = scene.Trace({0, 0, 0}, {0, 0, -1}, 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->t, 2.5, 1e-9);  // occlusion: nearest surface
}

TEST(SceneTrace, BoxIntersection) {
  Primitive box;
  box.kind = PrimitiveKind::kBox;
  box.base_pose.position = {0, 0, -4};
  box.half_size = {1, 1, 1};
  const Scene scene({box});
  const auto hit = scene.Trace({0, 0, 0}, {0, 0, -1}, 0.0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->t, 3.0, 1e-9);
  // Ray starting inside exits through the far face, also when it starts
  // off-centre and heads away from the centre.
  const auto inside = scene.Trace({0, 0, -4}, {0, 0, -1}, 0.0);
  ASSERT_TRUE(inside.has_value());
  EXPECT_NEAR(inside->t, 1.0, 1e-9);
  const auto leaving = scene.Trace({0.5, 0, -4.5}, {0, 0, -1}, 0.0);
  ASSERT_TRUE(leaving.has_value());
  EXPECT_NEAR(leaving->t, 0.5, 1e-9);
}

TEST(SceneTrace, CylinderSideAndCap) {
  Primitive cyl;
  cyl.kind = PrimitiveKind::kCylinder;
  cyl.base_pose.position = {0, 0, -4};
  cyl.half_size = {0.5, 1.0, 0.5};  // radius 0.5, half height 1
  const Scene scene({cyl});
  // Side hit.
  const auto side = scene.Trace({0, 0, 0}, {0, 0, -1}, 0.0);
  ASSERT_TRUE(side.has_value());
  EXPECT_NEAR(side->t, 3.5, 1e-9);
  // Cap hit from above.
  const auto cap = scene.Trace({0, 3, -4}, {0, -1, 0}, 0.0);
  ASSERT_TRUE(cap.has_value());
  EXPECT_NEAR(cap->t, 2.0, 1e-9);
}

TEST(SceneTrace, MotionMovesPrimitive) {
  Primitive sphere;
  sphere.kind = PrimitiveKind::kEllipsoid;
  sphere.base_pose.position = {0, 0, -5};
  sphere.half_size = {0.5, 0.5, 0.5};
  sphere.motion.kind = Motion::Kind::kSway;
  sphere.motion.amplitude_m = 2.0;
  sphere.motion.frequency_hz = 0.25;  // quarter period = 1 s
  sphere.motion.axis = {1, 0, 0};
  const Scene scene({sphere});
  // At t=0 the sphere is centred: straight ray hits.
  EXPECT_TRUE(scene.Trace({0, 0, 0}, {0, 0, -1}, 0.0).has_value());
  // At t=1 s it has swayed 2 m in +x: the straight ray misses.
  EXPECT_FALSE(scene.Trace({0, 0, 0}, {0, 0, -1}, 1.0).has_value());
}

geom::Vec3 RandomUnit(util::Rng& rng) {
  return geom::Vec3{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()}
      .Normalized();
}

// The points of a primitive farthest from its centre, pulled 1e-6 m inside,
// in its local frame: every box corner, points on both cylinder rims, and
// both tips of the ellipsoid's longest semi-axis.
std::vector<geom::Vec3> FarthestLocalPoints(const Primitive& prim,
                                            util::Rng& rng) {
  constexpr double kInside = 1e-6;
  const geom::Vec3 h = prim.half_size;
  std::vector<geom::Vec3> points;
  switch (prim.kind) {
    case PrimitiveKind::kBox:
      for (int corner = 0; corner < 8; ++corner) {
        points.push_back({(corner & 1 ? 1 : -1) * (h.x - kInside),
                          (corner & 2 ? 1 : -1) * (h.y - kInside),
                          (corner & 4 ? 1 : -1) * (h.z - kInside)});
      }
      break;
    case PrimitiveKind::kCylinder:
      for (int i = 0; i < 8; ++i) {
        const double a = rng.Uniform(0.0, 2 * geom::kPi);
        points.push_back({(h.x - kInside) * std::cos(a),
                          (i & 1 ? 1 : -1) * (h.y - kInside),
                          (h.x - kInside) * std::sin(a)});
      }
      break;
    case PrimitiveKind::kEllipsoid: {
      geom::Vec3 tip{0, 0, 0};
      if (h.x >= h.y && h.x >= h.z) {
        tip.x = h.x - kInside;
      } else if (h.y >= h.z) {
        tip.y = h.y - kInside;
      } else {
        tip.z = h.z - kInside;
      }
      points.push_back(tip);
      points.push_back(-tip);
      break;
    }
  }
  return points;
}

// A ray aimed from outside at a point just inside a primitive must hit it,
// even when it only grazes the primitive's farthest extent: any bound that
// skips primitives must be at least as large as the shape.
TEST(SceneTrace, RaysAtFarthestSurfacePointsHit) {
  util::Rng rng(20261017);
  int rays = 0, misses = 0;
  for (const PrimitiveKind kind : {PrimitiveKind::kBox,
                                   PrimitiveKind::kCylinder,
                                   PrimitiveKind::kEllipsoid}) {
    for (int trial = 0; trial < 300; ++trial) {
      Primitive prim;
      prim.kind = kind;
      prim.base_pose.position = {rng.Uniform(-3, 3), rng.Uniform(-3, 3),
                                 rng.Uniform(-3, 3)};
      prim.base_pose.orientation = geom::Quat::FromAxisAngle(
          RandomUnit(rng), rng.Uniform(-geom::kPi, geom::kPi));
      prim.half_size = {rng.Uniform(0.02, 0.8), rng.Uniform(0.02, 0.8),
                        rng.Uniform(0.02, 0.8)};
      prim.motion.kind = Motion::Kind::kSway;
      prim.motion.axis = RandomUnit(rng);
      prim.motion.amplitude_m = rng.Uniform(0.0, 0.5);
      prim.motion.frequency_hz = rng.Uniform(0.1, 2.0);
      prim.motion.phase = rng.Uniform(0.0, 2 * geom::kPi);
      prim.motion.yaw_amplitude = rng.Uniform(-1.0, 1.0);
      const double t_s = rng.Uniform(0.0, 10.0);
      const Scene scene({prim});
      const geom::Mat4 to_world = prim.PoseAt(t_s).ToMat4();
      for (const geom::Vec3& local : FarthestLocalPoints(prim, rng)) {
        const geom::Vec3 target = to_world.TransformPoint(local);
        for (int i = 0; i < 4; ++i) {
          // |half_size| < 1.4 m, so an origin 3 m or more from a point
          // inside the primitive is over 1.6 m from its centre: outside.
          const geom::Vec3 out = RandomUnit(rng);
          const geom::Vec3 origin = target + out * rng.Uniform(3.0, 10.0);
          ++rays;
          if (!scene.Trace(origin, -out, t_s)) ++misses;
        }
      }
    }
  }
  EXPECT_EQ(misses, 0) << misses << " of " << rays << " rays missed";
}

TEST(RenderView, ProducesValidDepthAndColor) {
  const Scene scene = SingleSphereScene({0, 1, 0}, 0.5);
  geom::RgbdCamera cam;
  cam.intrinsics = geom::CameraIntrinsics::FromFov(40, 36, geom::DegToRad(70));
  cam.extrinsics.pose = geom::Pose::LookAt({0, 1, 2.5}, {0, 1, 0});
  const image::RgbdFrame frame = RenderView(scene, cam, 0.0, 0, 0);
  // The centre pixel hits the sphere ~2 m away.
  const std::uint16_t center_depth = frame.depth.at(20, 18);
  EXPECT_NEAR(center_depth, 2000, 30);
  EXPECT_GT(frame.color.r.at(20, 18), 0);
  // Corner pixels miss: invalid depth, black color.
  EXPECT_EQ(frame.depth.at(0, 0), 0);
  EXPECT_EQ(frame.color.r.at(0, 0), 0);
}

TEST(RenderView, DeterministicAcrossCalls) {
  const Scene scene = SingleSphereScene({0, 1, 0}, 0.5);
  geom::RgbdCamera cam;
  cam.intrinsics = geom::CameraIntrinsics::FromFov(32, 24, geom::DegToRad(70));
  cam.extrinsics.pose = geom::Pose::LookAt({0, 1, 2.0}, {0, 1, 0});
  const auto a = RenderView(scene, cam, 0.5, 7, 3);
  const auto b = RenderView(scene, cam, 0.5, 7, 3);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.color, b.color);
}

TEST(RenderView, NoiseIsBoundedAndZeroMeanish) {
  const Scene scene = SingleSphereScene({0, 1, 0}, 0.5);
  geom::RgbdCamera cam;
  cam.intrinsics = geom::CameraIntrinsics::FromFov(40, 36, geom::DegToRad(70));
  cam.extrinsics.pose = geom::Pose::LookAt({0, 1, 2.5}, {0, 1, 0});
  const auto clean = RenderView(scene, cam, 0.0, 0, 0, /*sensor_noise=*/false);
  const auto noisy = RenderView(scene, cam, 0.0, 0, 0);
  double err_sum = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < clean.depth.data().size(); ++i) {
    if (clean.depth.data()[i] == 0) continue;
    const double err = double(noisy.depth.data()[i]) - double(clean.depth.data()[i]);
    EXPECT_LT(std::abs(err), 40.0);  // a few stddevs of mm noise
    err_sum += err;
    ++count;
  }
  ASSERT_GT(count, 10);
  EXPECT_LT(std::abs(err_sum / count), 5.0);
}

TEST(Dataset, AllFiveVideosPresent) {
  const auto& videos = AllVideos();
  ASSERT_EQ(videos.size(), 5u);
  EXPECT_EQ(videos[0].name, "band2");
  EXPECT_EQ(videos[1].objects, 1);    // dance5
  EXPECT_EQ(videos[3].objects, 14);   // pizza1
  EXPECT_THROW(VideoByName("nope"), std::invalid_argument);
}

TEST(Dataset, SceneComplexityTracksObjectCount) {
  // More objects in the spec => more primitives in the built scene.
  const auto pizza = MakeScene(VideoByName("pizza1"));
  const auto dance = MakeScene(VideoByName("dance5"));
  EXPECT_GT(pizza.primitives().size(), dance.primitives().size() + 5);
}

TEST(Dataset, CaptureVideoShapes) {
  ScaleProfile profile;
  profile.camera_count = 4;
  profile.camera_width = 32;
  profile.camera_height = 24;
  const CapturedSequence seq = CaptureVideo("toddler4", profile, 3);
  EXPECT_EQ(seq.frames.size(), 3u);
  EXPECT_EQ(seq.frames[0].size(), 4u);
  EXPECT_EQ(seq.frames[0][0].width(), 32);
  EXPECT_EQ(seq.rig.size(), 4u);
  // The scene is actually visible: plenty of valid depth pixels.
  int valid = 0;
  for (const auto& v : seq.frames[0]) {
    for (auto d : v.depth.data()) valid += d != 0;
  }
  EXPECT_GT(valid, 200);
}

// FNV-1a-64 of a captured sequence: per frame, per camera, the depth
// samples as two little-endian bytes each, then the r, g and b planes.
std::uint64_t CaptureHash(const CapturedSequence& seq) {
  util::Fnv1a h;
  for (const std::vector<image::RgbdFrame>& views : seq.frames) {
    for (const image::RgbdFrame& view : views) {
      for (const std::uint16_t d : view.depth.data()) {
        const unsigned char bytes[2] = {static_cast<unsigned char>(d & 0xff),
                                        static_cast<unsigned char>(d >> 8)};
        h.MixBytes(bytes, 2);
      }
      for (const image::Plane8* plane :
           {&view.color.r, &view.color.g, &view.color.b}) {
        h.MixBytes(plane->data().data(), plane->data().size());
      }
    }
  }
  return h.value();
}

// Pins every captured pixel of all five sequences, so a faster tracer must
// reproduce the exact nearest-hit rule. 6 frames at 2 fps span 2.5 s of
// sway, orbit, bounce and yaw. The values were captured once from the
// per-ray tracer that posed every primitive for every ray; never re-capture
// them to make a change pass.
TEST(Dataset, CapturePinnedOnAllFiveSequences) {
  ScaleProfile profile;
  profile.camera_count = 4;
  profile.camera_width = 40;
  profile.camera_height = 36;
  profile.fps = 2.0;
  struct Pin {
    const char* sequence;
    std::uint64_t hash;
  };
  constexpr Pin kPins[] = {
      {"band2", 0xce4a0f334b543538ull},
      {"dance5", 0xbae5bd4ec6646fe4ull},
      {"office1", 0xd17f7948ffd2eefeull},
      {"pizza1", 0xa7d498b8c5e02887ull},
      {"toddler4", 0xc059d7e75681f833ull},
  };
  for (const Pin& pin : kPins) {
    const std::uint64_t hash =
        CaptureHash(CaptureVideo(pin.sequence, profile, 6));
    EXPECT_EQ(hash, pin.hash) << pin.sequence << ": capture hash 0x"
                              << std::hex << hash << " != pinned 0x"
                              << pin.hash;
  }
}

TEST(UserTrace, GeneratesSmoothHumanMotion) {
  const UserTrace trace = GenerateUserTrace("band2", TraceStyle::kOrbit, 300);
  ASSERT_EQ(trace.poses.size(), 300u);
  for (std::size_t i = 1; i < trace.poses.size(); ++i) {
    const double dt = (trace.poses[i].time_ms - trace.poses[i - 1].time_ms) / 1000.0;
    const double speed = trace.poses[i].pose.position.DistanceTo(
                             trace.poses[i - 1].pose.position) / dt;
    EXPECT_LT(speed, 2.5) << "superhuman speed at " << i;  // m/s
    const double rot_rate = geom::RadToDeg(trace.poses[i].pose.orientation.AngleTo(
                                trace.poses[i - 1].pose.orientation)) / dt;
    EXPECT_LT(rot_rate, 200.0) << "superhuman rotation at " << i;
  }
}

TEST(UserTrace, StylesDiffer) {
  const auto orbit = GenerateUserTrace("band2", TraceStyle::kOrbit, 100);
  const auto walk = GenerateUserTrace("band2", TraceStyle::kWalkIn, 100);
  double diff = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    diff += orbit.poses[i].pose.position.DistanceTo(walk.poses[i].pose.position);
  }
  EXPECT_GT(diff / 100.0, 0.2);
}

TEST(UserTrace, WalkInApproachesScene) {
  const auto walk = GenerateUserTrace("band2", TraceStyle::kWalkIn, 600);
  double min_r = 1e9, max_r = 0.0;
  for (const auto& tp : walk.poses) {
    const double r = std::hypot(tp.pose.position.x, tp.pose.position.z);
    min_r = std::min(min_r, r);
    max_r = std::max(max_r, r);
  }
  EXPECT_LT(min_r, 1.3);   // comes close
  EXPECT_GT(max_r, 2.0);   // backs off
}

TEST(UserTrace, ViewerLooksTowardScene) {
  for (const auto style : {TraceStyle::kOrbit, TraceStyle::kWalkIn,
                           TraceStyle::kFocus}) {
    const auto trace = GenerateUserTrace("office1", style, 120);
    int facing = 0;
    for (const auto& tp : trace.poses) {
      const geom::Vec3 to_center =
          (geom::Vec3{0, 0.9, 0} - tp.pose.position).Normalized();
      if (tp.pose.Forward().Dot(to_center) > 0.5) ++facing;
    }
    EXPECT_GT(facing, 100) << "style " << static_cast<int>(style);
  }
}

TEST(UserTrace, SampleTraceInterpolates) {
  const auto trace = GenerateUserTrace("band2", TraceStyle::kOrbit, 50);
  const geom::Pose p0 = SampleTrace(trace, trace.poses[10].time_ms);
  EXPECT_TRUE(geom::AlmostEqual(p0.position, trace.poses[10].pose.position, 1e-9));
  // Midpoint lies between its neighbours.
  const double mid_t = (trace.poses[10].time_ms + trace.poses[11].time_ms) / 2;
  const geom::Pose mid = SampleTrace(trace, mid_t);
  EXPECT_LT(mid.position.DistanceTo(trace.poses[10].pose.position),
            trace.poses[11].pose.position.DistanceTo(
                trace.poses[10].pose.position) + 1e-9);
  // Clamps outside the range.
  EXPECT_TRUE(geom::AlmostEqual(SampleTrace(trace, -100).position,
                                trace.poses.front().pose.position, 1e-9));
  EXPECT_TRUE(geom::AlmostEqual(SampleTrace(trace, 1e9).position,
                                trace.poses.back().pose.position, 1e-9));
}

TEST(UserTrace, StandardTracesAreThree) {
  const auto traces = StandardTraces("pizza1", 60);
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].style, TraceStyle::kOrbit);
  EXPECT_EQ(traces[1].style, TraceStyle::kWalkIn);
  EXPECT_EQ(traces[2].style, TraceStyle::kFocus);
}

// ---- Bandwidth traces (Table 4 statistics) ----

TEST(NetTrace, Trace1MatchesTable4) {
  const BandwidthTrace t = MakeTrace1(120.0);
  EXPECT_NEAR(t.MeanMbps(), 216.90, 8.0);
  EXPECT_GE(t.MinMbps(), 151.91 - 1e-9);
  EXPECT_LE(t.MaxMbps(), 262.19 + 1e-9);
  EXPECT_NEAR(t.PercentileMbps(90), 234.41, 12.0);
  EXPECT_NEAR(t.PercentileMbps(10), 191.52, 12.0);
}

TEST(NetTrace, Trace2MatchesTable4) {
  const BandwidthTrace t = MakeTrace2(120.0);
  EXPECT_NEAR(t.MeanMbps(), 89.20, 5.0);
  EXPECT_GE(t.MinMbps(), 36.35 - 1e-9);
  EXPECT_LE(t.MaxMbps(), 106.37 + 1e-9);
  EXPECT_NEAR(t.PercentileMbps(90), 98.09, 8.0);
  EXPECT_NEAR(t.PercentileMbps(10), 80.52, 8.0);
}

TEST(NetTrace, Trace2HasDeepFades) {
  // The mall-mobility trace's lower tail reaches well below p10.
  const BandwidthTrace t = MakeTrace2(120.0);
  EXPECT_LT(t.MinMbps(), 70.0);
}

TEST(NetTrace, AtMsLoopsLikeMahimahi) {
  BandwidthTrace t;
  t.sample_interval_ms = 100.0;
  t.mbps = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(t.AtMs(0.0), 10.0);
  EXPECT_DOUBLE_EQ(t.AtMs(150.0), 20.0);
  EXPECT_DOUBLE_EQ(t.AtMs(300.0), 10.0);  // wraps
  EXPECT_DOUBLE_EQ(t.AtMs(950.0), 10.0);  // 950 % 300 = 50 -> sample 0
}

TEST(NetTrace, ScaledMultipliesEverySample) {
  const BandwidthTrace t = MakeTrace2(10.0);
  const BandwidthTrace s = t.Scaled(0.5);
  EXPECT_NEAR(s.MeanMbps(), t.MeanMbps() * 0.5, 1e-9);
}

TEST(NetTrace, Deterministic) {
  const BandwidthTrace a = MakeTrace1(20.0, 101);
  const BandwidthTrace b = MakeTrace1(20.0, 101);
  EXPECT_EQ(a.mbps, b.mbps);
  const BandwidthTrace c = MakeTrace1(20.0, 999);
  EXPECT_NE(a.mbps, c.mbps);
}

}  // namespace
}  // namespace livo::sim
