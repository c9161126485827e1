#include "sim/dataset.h"

#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace livo::sim {
namespace {

using geom::DegToRad;
using geom::Pose;
using geom::Vec3;

// Adds a human figure (head + torso + two arm lobes + leg column) centred
// at `feet` with the given motion applied to all parts coherently.
void AddPerson(std::vector<Primitive>& prims, const Vec3& feet,
               const Texture& shirt, const Motion& motion, double height = 1.7) {
  const double torso_top = feet.y + 0.82 * height;
  Texture skin;
  skin.r = 224;
  skin.g = 188;
  skin.b = 160;
  skin.stripe_contrast = 0.08;
  skin.noise_seed = shirt.noise_seed + 7;

  Primitive head;
  head.kind = PrimitiveKind::kEllipsoid;
  head.base_pose.position = {feet.x, torso_top + 0.09 * height, feet.z};
  head.half_size = {0.095, 0.115, 0.10};
  head.texture = skin;
  head.motion = motion;
  prims.push_back(head);

  Primitive torso;
  torso.kind = PrimitiveKind::kEllipsoid;
  torso.base_pose.position = {feet.x, feet.y + 0.6 * height, feet.z};
  torso.half_size = {0.21, 0.30, 0.13};
  torso.texture = shirt;
  torso.motion = motion;
  prims.push_back(torso);

  for (double side : {-1.0, 1.0}) {
    Primitive arm;
    arm.kind = PrimitiveKind::kEllipsoid;
    arm.base_pose.position = {feet.x + side * 0.27, feet.y + 0.58 * height,
                              feet.z};
    arm.half_size = {0.06, 0.26, 0.06};
    arm.texture = shirt;
    arm.motion = motion;
    // Arms move a little more than the torso.
    arm.motion.amplitude_m *= 1.5;
    arm.motion.phase += side * 0.8;
    prims.push_back(arm);
  }

  Primitive legs;
  legs.kind = PrimitiveKind::kCylinder;
  legs.base_pose.position = {feet.x, feet.y + 0.22 * height, feet.z};
  legs.half_size = {0.13, 0.22 * height, 0.13};
  Texture pants = shirt;
  pants.r = static_cast<std::uint8_t>(shirt.r / 3);
  pants.g = static_cast<std::uint8_t>(shirt.g / 3);
  pants.b = static_cast<std::uint8_t>(shirt.b / 2);
  legs.texture = pants;
  legs.motion = motion;
  legs.motion.amplitude_m *= 0.5;
  prims.push_back(legs);
}

void AddFloor(std::vector<Primitive>& prims) {
  Primitive floor;
  floor.kind = PrimitiveKind::kBox;
  floor.base_pose.position = {0, -0.05, 0};
  floor.half_size = {3.5, 0.05, 3.5};
  floor.texture.r = 120;
  floor.texture.g = 104;
  floor.texture.b = 88;
  floor.texture.stripe_scale = 1.2;
  floor.texture.stripe_contrast = 0.3;
  floor.texture.noise_seed = 99;
  prims.push_back(floor);
}

void AddProp(std::vector<Primitive>& prims, PrimitiveKind kind,
             const Vec3& position, const Vec3& half, const Texture& tex,
             const Motion& motion = {}) {
  Primitive prop;
  prop.kind = kind;
  prop.base_pose.position = position;
  prop.half_size = half;
  prop.texture = tex;
  prop.motion = motion;
  prims.push_back(prop);
}

Texture MakeTexture(std::uint8_t r, std::uint8_t g, std::uint8_t b,
                    std::uint32_t seed, double contrast = 0.25) {
  Texture t;
  t.r = r;
  t.g = g;
  t.b = b;
  t.noise_seed = seed;
  t.stripe_contrast = contrast;
  return t;
}

Motion Sway(double amplitude, double freq, double phase, const Vec3& axis,
            double yaw = 0.0) {
  Motion m;
  m.kind = Motion::Kind::kSway;
  m.amplitude_m = amplitude;
  m.frequency_hz = freq;
  m.phase = phase;
  m.axis = axis;
  m.yaw_amplitude = yaw;
  return m;
}

Scene MakeBand2() {
  // 4 performers in a line + 5 instrument props = 9 objects.
  std::vector<Primitive> prims;
  AddFloor(prims);
  const double freq = 0.5;
  for (int i = 0; i < 4; ++i) {
    const double x = -1.2 + 0.8 * i;
    AddPerson(prims, {x, 0, -0.3},
              MakeTexture(static_cast<std::uint8_t>(90 + 40 * i),
                          static_cast<std::uint8_t>(60 + 30 * i), 150,
                          static_cast<std::uint32_t>(i + 1)),
              Sway(0.10, freq, 0.7 * i, {1, 0, 0.3}, 0.25));
  }
  // Instruments: cello (tall ellipsoid), two guitars, keyboard, drum.
  AddProp(prims, PrimitiveKind::kEllipsoid, {-1.2, 0.75, 0.05},
          {0.18, 0.42, 0.1}, MakeTexture(150, 92, 40, 20),
          Sway(0.05, freq, 0.2, {1, 0, 0}));
  AddProp(prims, PrimitiveKind::kEllipsoid, {-0.4, 1.0, 0.0},
          {0.12, 0.3, 0.07}, MakeTexture(160, 100, 48, 21),
          Sway(0.08, freq, 1.0, {1, 0, 0.2}));
  AddProp(prims, PrimitiveKind::kEllipsoid, {0.4, 1.0, 0.0},
          {0.12, 0.3, 0.07}, MakeTexture(140, 84, 36, 22),
          Sway(0.08, freq, 1.7, {1, 0, -0.2}));
  AddProp(prims, PrimitiveKind::kBox, {1.2, 0.95, 0.1}, {0.35, 0.04, 0.14},
          MakeTexture(40, 40, 46, 23));
  AddProp(prims, PrimitiveKind::kCylinder, {2.0, 0.4, -0.2}, {0.28, 0.25, 0.28},
          MakeTexture(200, 60, 60, 24));
  return Scene(std::move(prims));
}

Scene MakeDance5() {
  // A single dancer with vigorous orbiting motion; empty stage otherwise.
  std::vector<Primitive> prims;
  AddFloor(prims);
  Motion dance;
  dance.kind = Motion::Kind::kOrbit;
  dance.amplitude_m = 0.55;
  dance.frequency_hz = 0.35;
  dance.yaw_amplitude = 1.2;
  AddPerson(prims, {0, 0, 0}, MakeTexture(200, 70, 110, 5), dance, 1.72);
  return Scene(std::move(prims));
}

Scene MakeOffice1() {
  // Person working: 1 person + desk + chair + monitor + 2 shelves + lamp = 7.
  std::vector<Primitive> prims;
  AddFloor(prims);
  AddPerson(prims, {0.1, 0, 0.2}, MakeTexture(70, 110, 160, 9),
            Sway(0.03, 0.3, 0.0, {1, 0, 0}, 0.12));
  AddProp(prims, PrimitiveKind::kBox, {0.1, 0.72, -0.45}, {0.7, 0.03, 0.35},
          MakeTexture(150, 120, 80, 30));
  AddProp(prims, PrimitiveKind::kBox, {0.1, 0.98, -0.7}, {0.26, 0.18, 0.03},
          MakeTexture(30, 32, 38, 31, 0.5));
  AddProp(prims, PrimitiveKind::kCylinder, {0.1, 0.35, 0.62},
          {0.22, 0.35, 0.22}, MakeTexture(60, 60, 66, 32));
  AddProp(prims, PrimitiveKind::kBox, {-1.4, 0.9, -0.3}, {0.25, 0.9, 0.2},
          MakeTexture(130, 100, 70, 33));
  AddProp(prims, PrimitiveKind::kBox, {1.6, 0.9, -0.3}, {0.25, 0.9, 0.2},
          MakeTexture(126, 96, 66, 34));
  AddProp(prims, PrimitiveKind::kEllipsoid, {0.75, 1.05, -0.5},
          {0.09, 0.12, 0.09}, MakeTexture(250, 240, 180, 35, 0.05));
  return Scene(std::move(prims));
}

Scene MakePizza1() {
  // Food and party: 6 people around a table + table + 7 props = 14 objects.
  std::vector<Primitive> prims;
  AddFloor(prims);
  util::Rng rng(1234);
  for (int i = 0; i < 6; ++i) {
    const double angle = 2 * geom::kPi * i / 6.0;
    const double radius = 1.25;
    AddPerson(prims,
              {radius * std::cos(angle), 0, radius * std::sin(angle)},
              MakeTexture(static_cast<std::uint8_t>(80 + rng.NextBelow(150)),
                          static_cast<std::uint8_t>(60 + rng.NextBelow(150)),
                          static_cast<std::uint8_t>(60 + rng.NextBelow(150)),
                          static_cast<std::uint32_t>(40 + i)),
              Sway(0.07, 0.4 + 0.05 * i, 1.1 * i,
                   {std::cos(angle + 1.5), 0, std::sin(angle + 1.5)}, 0.35));
  }
  AddProp(prims, PrimitiveKind::kCylinder, {0, 0.45, 0}, {0.55, 0.45, 0.55},
          MakeTexture(160, 130, 90, 50));
  // Pizza + plates + cups on the table.
  AddProp(prims, PrimitiveKind::kCylinder, {0, 0.93, 0}, {0.26, 0.02, 0.26},
          MakeTexture(220, 160, 60, 51, 0.45));
  for (int i = 0; i < 4; ++i) {
    const double a = geom::kPi / 2 * i + 0.4;
    AddProp(prims, PrimitiveKind::kCylinder,
            {0.42 * std::cos(a), 0.93, 0.42 * std::sin(a)},
            {0.08, 0.012, 0.08}, MakeTexture(240, 240, 235, 52 + i, 0.05));
  }
  AddProp(prims, PrimitiveKind::kCylinder, {0.2, 0.98, -0.2},
          {0.035, 0.06, 0.035}, MakeTexture(200, 40, 40, 57));
  AddProp(prims, PrimitiveKind::kCylinder, {-0.2, 0.98, 0.15},
          {0.035, 0.06, 0.035}, MakeTexture(40, 90, 200, 58));
  return Scene(std::move(prims));
}

Scene MakeToddler4() {
  // A child playing games: child + ball + toy box = 3 objects.
  std::vector<Primitive> prims;
  AddFloor(prims);
  Motion bounce;
  bounce.kind = Motion::Kind::kWander;
  bounce.amplitude_m = 0.4;
  bounce.frequency_hz = 0.45;
  bounce.yaw_amplitude = 0.8;
  AddPerson(prims, {0, 0, 0}, MakeTexture(240, 200, 60, 60), bounce, 1.0);

  Motion ball_motion;
  ball_motion.kind = Motion::Kind::kBounce;
  ball_motion.amplitude_m = 0.5;
  ball_motion.frequency_hz = 0.9;
  AddProp(prims, PrimitiveKind::kEllipsoid, {0.7, 0.12, 0.4},
          {0.12, 0.12, 0.12}, MakeTexture(220, 60, 60, 61, 0.5), ball_motion);
  AddProp(prims, PrimitiveKind::kBox, {-0.9, 0.2, -0.5}, {0.3, 0.2, 0.25},
          MakeTexture(90, 170, 90, 62, 0.4));
  return Scene(std::move(prims));
}

}  // namespace

const std::vector<VideoSpec>& AllVideos() {
  static const std::vector<VideoSpec> videos = {
      {"band2", 9, 4, 197, 11.1},
      {"dance5", 1, 1, 333, 10.8},
      {"office1", 7, 1, 187, 10.6},
      {"pizza1", 14, 6, 47, 13.8},
      {"toddler4", 3, 1, 127, 10.6},
  };
  return videos;
}

const VideoSpec& VideoByName(const std::string& name) {
  for (const auto& v : AllVideos()) {
    if (v.name == name) return v;
  }
  throw std::invalid_argument("unknown video: " + name);
}

Scene MakeScene(const VideoSpec& spec) {
  if (spec.name == "band2") return MakeBand2();
  if (spec.name == "dance5") return MakeDance5();
  if (spec.name == "office1") return MakeOffice1();
  if (spec.name == "pizza1") return MakePizza1();
  if (spec.name == "toddler4") return MakeToddler4();
  throw std::invalid_argument("no scene builder for video: " + spec.name);
}

std::vector<geom::RgbdCamera> MakeRig(const ScaleProfile& profile) {
  constexpr double kHfovDeg = 70.0;
  constexpr double kRadiusM = 2.6;
  constexpr double kHeightM = 1.4;
  const auto intrinsics = geom::CameraIntrinsics::FromFov(
      profile.camera_width, profile.camera_height, DegToRad(kHfovDeg));
  return geom::MakeCircularRig(profile.camera_count, kRadiusM, kHeightM,
                               {0, 0.9, 0}, intrinsics);
}

CapturedSequence CaptureVideo(const std::string& name,
                              const ScaleProfile& profile, int frames) {
  CapturedSequence seq;
  seq.spec = VideoByName(name);
  seq.rig = MakeRig(profile);
  seq.fps = profile.fps;
  const Scene scene = MakeScene(seq.spec);
  seq.frames.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    seq.frames.push_back(
        RenderRig(scene, seq.rig, f / profile.fps,
                  static_cast<std::uint32_t>(f)));
  }
  return seq;
}

}  // namespace livo::sim
