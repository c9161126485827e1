// RGB <-> YCbCr conversion (BT.601 full range).
//
// The paper feeds BGRA into nvenc's H.265, which codes internally in YUV; we
// do the same conversion explicitly so the codec can quantize luma and
// chroma with the same machinery it uses for the 16-bit depth Y plane.
// Planes are carried in 16-bit containers with 8-bit sample values so that
// one PlaneCodec implementation serves both color and depth.
#pragma once

#include <vector>

#include "image/image.h"

namespace livo::video {

// Converts an RGB image to three planes [Y, Cb, Cr] with values in [0, 255].
std::vector<image::Plane16> RgbToYcbcr(const image::ColorImage& rgb);

// Same conversion, reusing `planes` when already the right shape (acquiring
// pooled storage otherwise) — the sender calls this every frame without
// frame-sized allocations.
void RgbToYcbcrInto(const image::ColorImage& rgb,
                    std::vector<image::Plane16>& planes);

// Inverse conversion; planes must be the same shape.
image::ColorImage YcbcrToRgb(const std::vector<image::Plane16>& planes);

}  // namespace livo::video
