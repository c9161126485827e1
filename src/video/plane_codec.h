// Single-plane block-transform coder.
//
// Encodes one raster plane (8-bit color component or 16-bit depth) as a
// sequence of 8x8 blocks with H.26x-style tools:
//   * I-frames: DC intra prediction from reconstructed neighbours.
//   * P-frames: per-block mode decision between SKIP (copy co-located
//     reference block, a row copy), zero-motion inter residual, small-range
//     (+-3 px full search) motion-compensated inter residual, and intra
//     fallback.
//   * 8x8 DCT + uniform quantization (QP -> step, doubling every 6 QP) +
//     zigzag run/level Exp-Golomb entropy coding.
//
// Encoder reconstruction is bit-exact with the decoder: both dequantize the
// same coefficients and clamp identically, so LiVo's sender-side quality
// estimation (§3.3) can use the reconstruction directly.
//
// Slice parallelism: when CodecConfig::slice_height > 0 the plane is
// partitioned into independent full-width horizontal bands (aligned to the
// camera-tile grid by the caller). No prediction crosses a slice boundary,
// each slice yields its own bitstream segment, and a slice table (count +
// per-slice byte length) prefixes the plane bitstream so the decoder fans
// out symmetrically. Segments are concatenated in slice order, making the
// output byte-identical for every CodecConfig::max_threads value.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "image/image.h"
#include "video/codec_types.h"

namespace livo::video {

struct PlaneEncodeOutput {
  std::vector<std::uint8_t> bits;
  image::Plane16 reconstruction;
};

// Encodes `src` at quantization parameter `qp`. `reference` is the previous
// reconstructed plane for P-frames, or nullptr for an I-frame. Plane
// dimensions must be multiples of 8 (the tiler guarantees this); a
// reference of another shape throws std::invalid_argument.
//
// Reference precondition (EncodePlane and DecodePlane): every sample of
// `reference` lies in [0, CodecConfig::MaxSampleValue()], as every
// reconstruction these functions return does. A SKIP block copies its
// reference rows unclamped, so the encoder's reconstruction and the
// decoder's output are only specified for such references.
//
// `budget`, when given, is a byte allowance that may be shared by several
// concurrent EncodePlane calls. At the start of each block row a slice
// draws the whole bytes it has written since its last draw, and stops
// encoding once the allowance is negative. The slice table and each
// slice's last row and partial byte are never drawn, so a negative
// allowance means the complete encodes would have written more bytes than
// it held. A stopped encode is incomplete: its bits are no valid stream
// and its reconstruction has unwritten rows, fit only to be released to
// the pool. An encode that never sees a negative allowance is the same as
// one without a budget.
PlaneEncodeOutput EncodePlane(const CodecConfig& config,
                              const image::Plane16& src,
                              const image::Plane16* reference, int qp,
                              std::atomic<std::int64_t>* budget = nullptr);

// Decodes one plane. `reference` must match the encoder's (nullptr for
// I-frames) and the slice layout (CodecConfig::slice_height) must match
// the encoder's. Throws std::invalid_argument when `reference` is not
// config.width x config.height, and std::runtime_error on a corrupt
// stream, including a slice table that disagrees with the configured slice
// layout and a motion vector outside the encoder's search range.
image::Plane16 DecodePlane(const CodecConfig& config,
                           const std::vector<std::uint8_t>& bits,
                           const image::Plane16* reference, int qp);

}  // namespace livo::video
