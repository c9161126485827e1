// Depth-to-video-plane encodings (§3.2 "LiVo's Depth Encoding" + Fig 17).
//
// LiVo stores 16-bit depth in the Y channel of a 16-bit YUV H.265 mode and
// *scales* millimetre depth to occupy the full 16-bit range: for a camera
// range of [0, max_range_mm], depth d maps to d * 65535 / max_range_mm.
// Scaling pushes nearby depth values into distinct quantization bins of the
// codec, so the decoder can still distinguish them (§3.2's x vs x+v
// argument). Culled/invalid pixels stay at exactly 0.
//
// The live pipeline (core::LiVoSender / LiVoReceiver) uses only the scaler.
// bench_fig17_depth_encoding compares it with two baselines from prior work
// (Fig 17 / A.1):
//  * Unscaled Y16: raw millimetres in the Y channel (block artifacts).
//  * RGB-packed: 16-bit depth split across 8-bit color channels
//    (Pece et al. / RealSense colorization style, the packers below); the
//    low byte wraps every 256 mm, creating high-frequency discontinuities
//    that transform coding mangles.
#pragma once

#include <cstdint>
#include <vector>

#include "image/image.h"

namespace livo::image {

// Depth scaling policy. max_range_mm defaults to the commodity ToF limit
// (6 m, §3.2); the paper notes the same mechanism extends to larger ranges.
struct DepthScaler {
  std::uint32_t max_range_mm = 6000;

  std::uint16_t Scale(std::uint16_t depth_mm) const {
    if (depth_mm == 0) return 0;  // invalid / culled stays invalid
    const std::uint32_t clamped =
        depth_mm > max_range_mm ? max_range_mm : depth_mm;
    return static_cast<std::uint16_t>(
        (static_cast<std::uint64_t>(clamped) * 65535ull) / max_range_mm);
  }

  std::uint16_t Unscale(std::uint16_t scaled) const {
    return static_cast<std::uint16_t>(
        (static_cast<std::uint64_t>(scaled) * max_range_mm + 32767ull) / 65535ull);
  }
};

// Applies the scaler to every pixel (in place variants avoid copies in the
// sender pipeline hot path).
Plane16 ScaleDepth(const Plane16& depth_mm, const DepthScaler& scaler);
Plane16 UnscaleDepth(const Plane16& scaled, const DepthScaler& scaler);
void ScaleDepthInPlace(Plane16& depth, const DepthScaler& scaler);
void UnscaleDepthInPlace(Plane16& depth, const DepthScaler& scaler);

// Baseline: packs 16-bit depth into an 8-bit RGB image, high byte in R,
// low byte in G, B = 0. The inverse reassembles (R << 8) | G.
ColorImage PackDepthToRgb(const Plane16& depth_mm);
Plane16 UnpackDepthFromRgb(const ColorImage& packed);

// Widens a packed RGB image into the three 16-bit planes (values 0..255)
// the video codec consumes, and narrows three such planes back into an RGB
// image (throws std::invalid_argument unless given exactly three). The
// Fig 17 bench uses the pair to feed RGB-packed depth through the ordinary
// 8-bit codec path and to reassemble the codec's reconstruction.
std::vector<Plane16> PackedRgbToPlanes(const ColorImage& packed);
ColorImage PlanesToPackedRgb(const std::vector<Plane16>& planes);

}  // namespace livo::image
