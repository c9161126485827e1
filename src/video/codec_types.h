// Shared types of the block-transform video codec (livo::video).
//
// This codec stands in for nvenc H.265 in the paper's pipeline. It provides
// the properties LiVo depends on (§3.1-§3.3): inter-frame prediction for
// bandwidth efficiency, quantization-controlled distortion, a 16-bit
// single-plane ("Y16") mode for depth, and *direct* rate adaptation — the
// caller hands the encoder a target bitrate and the encoder chooses QP.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "image/image.h"

namespace livo::util {
class ThreadPool;
}

namespace livo::video {

// QP -> quantization step, H.265-style: step doubles every 6 QP.
inline double QpToStep(int qp) {
  return std::pow(2.0, (qp - 4) / 6.0);
}

enum class PlaneKind : std::uint8_t {
  kColor8,   // 8-bit samples (one of Y/Cb/Cr)
  kDepth16,  // 16-bit depth samples in the Y plane
};

// How EncodeToTarget chooses QP.
//  kPrecise    — bisection over real encodes (up to 8 trials, then one at
//                qp_max if none fits) for the lowest QP whose output fits
//                the budget; overshoots only when qp_max does (used by
//                offline sweeps).
//  kSinglePass — one encode at a QP predicted from the previous frame of
//                the same type (I/P) via the bits ~ 2^(-QP/6) model. This
//                is how real-time hardware encoders behave: cheap, but the
//                output can overshoot the budget when content changes,
//                which is precisely the source of LiVo's rare stalls
//                ("when the rate-adaptive codec overshoots", §4.3). With
//                no frame of that type yet there is no model, so each
//                encoder's first keyframe and first P-frame take the
//                kPrecise search.
enum class RateControlMode : std::uint8_t { kPrecise, kSinglePass };

struct CodecConfig {
  int width = 0;
  int height = 0;
  PlaneKind kind = PlaneKind::kColor8;
  RateControlMode rate_mode = RateControlMode::kPrecise;
  // Period of forced intra frames. Conferencing favours long GOPs plus
  // keyframe-on-demand (PLI/FIR, §A.1).
  int gop_length = 48;
  // QP search range for rate control. Depth uses a wider range because
  // 16-bit samples produce much larger coefficients.
  int qp_min = 2;
  int qp_max = 72;
  // Translational motion search on P blocks: a full search over every
  // offset within +-3 px of the co-located block.
  bool motion_search = true;

  // --- Threading (slice-parallel codec) ---
  // Pixel rows per independent slice (must be a multiple of 8). Slices are
  // horizontal full-width bands aligned to the camera-tile grid; no
  // prediction (intra DC or motion compensation) crosses a slice boundary,
  // so slices encode and decode independently. 0 = one slice per plane.
  // Changing this changes the bitstream; encoder and decoder must agree.
  int slice_height = 0;
  // Fan-out width for slice/plane parallelism: 1 = serial on the calling
  // thread, 0 = one lane per available hardware thread, k > 1 = at most k
  // lanes. Purely an execution knob: slice outputs are concatenated in
  // slice order, so bitstream and reconstruction are byte-identical for
  // every value.
  int max_threads = 1;
  // Pool running the fan-out; nullptr = the process-wide util::SharedPool().
  // Tests inject a private pool to exercise specific worker counts.
  util::ThreadPool* pool = nullptr;

  int MaxSampleValue() const { return kind == PlaneKind::kDepth16 ? 65535 : 255; }
  int MidSampleValue() const { return kind == PlaneKind::kDepth16 ? 32768 : 128; }
};

// One compressed plane of one frame.
struct EncodedPlane {
  std::vector<std::uint8_t> bits;
};

// One compressed frame (1 plane for depth, 3 for color).
struct EncodedFrame {
  std::uint32_t frame_index = 0;
  bool keyframe = false;
  int qp = 0;
  std::vector<EncodedPlane> planes;

  std::size_t SizeBytes() const {
    std::size_t total = kFrameHeaderBytes;
    for (const auto& p : planes) total += kPlaneHeaderBytes + p.bits.size();
    return total;
  }

  static constexpr std::size_t kFrameHeaderBytes = 8;  // index + flags + qp
  static constexpr std::size_t kPlaneHeaderBytes = 4;  // plane byte length
};

// Result of a rate-controlled encode: the bitstream plus the encoder's own
// reconstruction. The reconstruction is bit-exact with what the decoder
// produces, which is how the sender estimates post-compression RMSE without
// a second decode pass (the paper uses parallel nvdec instances; §3.3).
struct EncodeResult {
  EncodedFrame frame;
  std::vector<image::Plane16> reconstruction;  // one per plane
};

// Statistics the rate controller exposes for observability and tests.
struct RateControlStats {
  int chosen_qp = 0;
  int trials = 0;            // encode attempts during QP search
  std::size_t target_bytes = 0;
  std::size_t actual_bytes = 0;
};

}  // namespace livo::video
