#include "video/color_convert.h"

#include <stdexcept>

#include "image/plane_pool.h"
#include "kernels/kernels.h"

namespace livo::video {

void RgbToYcbcrInto(const image::ColorImage& rgb,
                    std::vector<image::Plane16>& planes) {
  const int w = rgb.width(), h = rgb.height();
  planes.resize(3);
  for (auto& plane : planes) {
    if (plane.width() != w || plane.height() != h) {
      plane = image::AcquirePooledPlane(w, h);
    }
  }
  kernels::Active().rgb_to_ycbcr(
      rgb.r.data().data(), rgb.g.data().data(), rgb.b.data().data(),
      planes[0].data().data(), planes[1].data().data(),
      planes[2].data().data(), rgb.r.data().size());
}

std::vector<image::Plane16> RgbToYcbcr(const image::ColorImage& rgb) {
  std::vector<image::Plane16> planes;
  RgbToYcbcrInto(rgb, planes);
  return planes;
}

image::ColorImage YcbcrToRgb(const std::vector<image::Plane16>& planes) {
  if (planes.size() != 3 || !planes[0].SameShape(planes[1]) ||
      !planes[0].SameShape(planes[2])) {
    throw std::invalid_argument("YcbcrToRgb expects 3 same-shape planes");
  }
  const int w = planes[0].width(), h = planes[0].height();
  image::ColorImage rgb(w, h);
  kernels::Active().ycbcr_to_rgb(
      planes[0].data().data(), planes[1].data().data(),
      planes[2].data().data(), rgb.r.data().data(), rgb.g.data().data(),
      rgb.b.data().data(), planes[0].data().size());
  return rgb;
}

}  // namespace livo::video
