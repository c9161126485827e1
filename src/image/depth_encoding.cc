#include "image/depth_encoding.h"

#include <stdexcept>

#include "kernels/kernels.h"

namespace livo::image {

Plane16 ScaleDepth(const Plane16& depth_mm, const DepthScaler& scaler) {
  Plane16 out = depth_mm;
  ScaleDepthInPlace(out, scaler);
  return out;
}

Plane16 UnscaleDepth(const Plane16& scaled, const DepthScaler& scaler) {
  Plane16 out = scaled;
  UnscaleDepthInPlace(out, scaler);
  return out;
}

void ScaleDepthInPlace(Plane16& depth, const DepthScaler& scaler) {
  auto& d = depth.data();
  kernels::Active().scale_depth(d.data(), d.data(), d.size(),
                                scaler.max_range_mm);
}

void UnscaleDepthInPlace(Plane16& depth, const DepthScaler& scaler) {
  auto& d = depth.data();
  kernels::Active().unscale_depth(d.data(), d.data(), d.size(),
                                  scaler.max_range_mm);
}

ColorImage PackDepthToRgb(const Plane16& depth_mm) {
  ColorImage out(depth_mm.width(), depth_mm.height());
  const auto& src = depth_mm.data();
  auto& r = out.r.data();
  auto& g = out.g.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    r[i] = static_cast<std::uint8_t>(src[i] >> 8);
    g[i] = static_cast<std::uint8_t>(src[i] & 0xff);
  }
  return out;
}

std::vector<Plane16> PackedRgbToPlanes(const ColorImage& packed) {
  std::vector<Plane16> planes;
  planes.reserve(3);
  for (const Plane8* channel : {&packed.r, &packed.g, &packed.b}) {
    Plane16 plane(packed.width(), packed.height());
    const auto& src = channel->data();
    auto& dst = plane.data();
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
    planes.push_back(std::move(plane));
  }
  return planes;
}

ColorImage PlanesToPackedRgb(const std::vector<Plane16>& planes) {
  if (planes.size() != 3) {
    throw std::invalid_argument("PlanesToPackedRgb needs exactly 3 planes");
  }
  ColorImage packed(planes[0].width(), planes[0].height());
  Plane8* channels[] = {&packed.r, &packed.g, &packed.b};
  for (std::size_t c = 0; c < 3; ++c) {
    const auto& src = planes[c].data();
    auto& dst = channels[c]->data();
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] = static_cast<std::uint8_t>(src[i]);
    }
  }
  return packed;
}

Plane16 UnpackDepthFromRgb(const ColorImage& packed) {
  Plane16 out(packed.width(), packed.height());
  const auto& r = packed.r.data();
  const auto& g = packed.g.data();
  auto& dst = out.data();
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<std::uint16_t>((static_cast<unsigned>(r[i]) << 8) | g[i]);
  }
  return out;
}

}  // namespace livo::image
