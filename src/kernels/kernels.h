// livo::kernels — runtime-dispatched SIMD hot-kernel layer.
//
// Every per-pixel / per-block loop the profiler blames (8x8 DCT, SAD motion
// search, residual quantization, YCbCr<->RGB conversion, depth scaling,
// RMSE accumulation, frustum-containment culling) is routed through a
// KernelTable: a struct of function pointers with one implementation per
// SIMD level (scalar / SSE4.2 / AVX2 on x86, NEON on aarch64). The level is
// chosen once at startup from CPU feature detection, overridable with
// LIVO_SIMD=scalar|sse42|avx2|neon|max.
//
// The contract that makes the layer safe to adopt: every entry of every
// table is BYTE-IDENTICAL to the scalar reference for all inputs — encoded
// bitstreams, per-frame records and cull masks do not depend on the
// dispatch level. Floating-point kernels guarantee this by performing the
// exact same IEEE operations in the exact same order per output element
// (lane-parallel over independent outputs, no FMA contraction — the kernels
// library builds with -ffp-contract=off), and integer kernels are exact by
// construction. tests/test_kernels.cc fuzzes every kernel at every
// available level against the scalar reference.
//
// A SIMD table does not need to override every entry: levels inherit the
// scalar implementation for kernels where the ISA offers no worthwhile win
// (e.g. SSE4.2 only overrides the integer kernels; 2-lane double SIMD is
// not worth the code).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace livo::kernels {

// Block geometry of the transform codec (mirrors video::kBlockSize; kept
// here so the kernel layer has no dependency on livo::video).
inline constexpr int kDctSize = 8;
inline constexpr int kDctPixels = kDctSize * kDctSize;

enum class SimdLevel : int { kScalar = 0, kSse42 = 1, kAvx2 = 2, kNeon = 3 };

const char* ToString(SimdLevel level);

// Parses a LIVO_SIMD value ("scalar", "sse42", "avx2", "neon"); nullopt for
// anything else ("max" and unknown strings are handled by the dispatcher).
std::optional<SimdLevel> ParseLevelName(std::string_view name);

// Camera-local frustum-containment parameters in SoA form: six inward
// plane normals/offsets plus pinhole intrinsics at depth resolution.
struct FrustumKernelParams {
  double nx[6], ny[6], nz[6], d[6];
  double fx = 1.0, fy = 1.0, cx = 0.0, cy = 0.0;
};

// Per-pixel classification written by cull_classify_row.
inline constexpr std::uint8_t kCullInvalid = 0;  // depth == 0, not examined
inline constexpr std::uint8_t kCullOutside = 1;  // valid, outside frustum
inline constexpr std::uint8_t kCullInside = 2;   // valid, inside frustum

struct KernelTable {
  const char* name = "scalar";
  SimdLevel level = SimdLevel::kScalar;

  // -- 8x8 orthonormal DCT-II / DCT-III on 64 contiguous doubles --
  void (*forward_dct)(const double* spatial, double* freq) = nullptr;
  void (*inverse_dct)(const double* freq, double* spatial) = nullptr;

  // -- integer block kernels (64-pixel blocks of int32 samples) --
  long long (*sad_block)(const std::int32_t* a, const std::int32_t* b) = nullptr;
  // Sum of squared differences of two 8x8 blocks read in place from uint16
  // planes: `a` and `b` point at each block's top-left sample, and row y
  // starts `y * stride` samples further on. The sum is exact: 64 squares of
  // at most 65535^2 stay below 2^38, so it is accumulated in 64 bits. One
  // call per block is measurably faster on the SKIP test than eight
  // sum_sq_diff_u16 calls, one per row (DESIGN.md §7).
  std::uint64_t (*ssd_block_u16)(const std::uint16_t* a, int a_stride,
                                 const std::uint16_t* b,
                                 int b_stride) = nullptr;
  // SAD of one 8-pixel row: int32 source block row vs uint16 reference row.
  int (*sad_row8_u16)(const std::int32_t* src,
                      const std::uint16_t* ref) = nullptr;

  // -- residual transform + quantization (forward DCT + divide + round /
  //    dequantize + inverse DCT + round). Returns whether any level != 0. --
  bool (*quantize_residual)(const std::int32_t* residual, double step,
                            std::int32_t* levels) = nullptr;
  void (*reconstruct_residual)(const std::int32_t* levels, double step,
                               std::int32_t* residual) = nullptr;

  // -- BT.601 full-range color conversion over n pixels (SoA planes) --
  void (*rgb_to_ycbcr)(const std::uint8_t* r, const std::uint8_t* g,
                       const std::uint8_t* b, std::uint16_t* y,
                       std::uint16_t* cb, std::uint16_t* cr,
                       std::size_t n) = nullptr;
  void (*ycbcr_to_rgb)(const std::uint16_t* y, const std::uint16_t* cb,
                       const std::uint16_t* cr, std::uint8_t* r,
                       std::uint8_t* g, std::uint8_t* b,
                       std::size_t n) = nullptr;

  // -- depth scaling (image::DepthScaler arithmetic; max_range_mm >= 1).
  //    in == out aliasing is allowed. --
  void (*scale_depth)(const std::uint16_t* in, std::uint16_t* out,
                      std::size_t n, std::uint32_t max_range_mm) = nullptr;
  void (*unscale_depth)(const std::uint16_t* in, std::uint16_t* out,
                        std::size_t n, std::uint32_t max_range_mm) = nullptr;

  // -- exact integer sum of squared differences (RMSE/PSNR accumulation) --
  std::uint64_t (*sum_sq_diff_u16)(const std::uint16_t* a,
                                   const std::uint16_t* b,
                                   std::size_t n) = nullptr;
  std::uint64_t (*sum_sq_diff_u8)(const std::uint8_t* a, const std::uint8_t* b,
                                  std::size_t n) = nullptr;

  // -- plane-major frustum containment over one depth row. `v` is the
  //    image-space row coordinate (y + 0.5); mask[x] gets kCull*. --
  void (*cull_classify_row)(const std::uint16_t* depth, int width, double v,
                            const FrustumKernelParams& params,
                            std::uint8_t* mask) = nullptr;

  // -- 2x spatial resampling for the simulcast ladder's low layer (L0).
  //    Source reads clamp to the plane edge, so (dw, dh) may exceed
  //    ceil(s/2) — the codec needs block-aligned planes, and the excess
  //    becomes edge-replicated padding. `avg` box-filters with round-half-up
  //    ((a+b+c+d+2)>>2) and suits color planes; `pick` takes the top-left
  //    sample of each 2x2 block, which keeps depth values unmixed across
  //    silhouettes (and never blends the 0 = invalid sentinel). --
  void (*downscale2x_avg_u16)(const std::uint16_t* src, int sw, int sh,
                              std::uint16_t* dst, int dw, int dh) = nullptr;
  void (*downscale2x_pick_u16)(const std::uint16_t* src, int sw, int sh,
                               std::uint16_t* dst, int dw, int dh) = nullptr;
  // Nearest-neighbor expansion back to an arbitrary (dw, dh) >= (sw, sh):
  // dst(x, y) = src(min(x/2, sw-1), min(y/2, sh-1)). Serves the L0 planes'
  // expansion to the full canvas and the receiver's marker check, which
  // upscales only the L0 rows under the marker strip.
  void (*upscale2x_u16)(const std::uint16_t* src, int sw, int sh,
                        std::uint16_t* dst, int dw, int dh) = nullptr;
};

// Table for an explicit level; nullptr when that level is not compiled in
// or the running CPU lacks the ISA. Table(kScalar) never returns nullptr.
const KernelTable* Table(SimdLevel level);

// Levels usable on this build + CPU, ascending (always starts with scalar).
std::vector<SimdLevel> AvailableLevels();

// The active table, resolved once from LIVO_SIMD + CPU detection. Exposes
// the chosen level through the obs gauge "kernels.simd_level".
const KernelTable& Active();
SimdLevel ActiveLevel();

// Test hooks. ForceLevel throws std::invalid_argument if the level is
// unavailable; ResetDispatchForTest drops the cached choice so the next
// Active() re-reads LIVO_SIMD. Both publish the table with release
// semantics, but tests should not switch levels while codec work is in
// flight on pool threads.
void ForceLevel(SimdLevel level);
void ResetDispatchForTest();

}  // namespace livo::kernels
