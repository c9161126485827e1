// Internal glue between the kernel translation units. Not installed into
// any public target surface — include only from src/kernels/*.cc and tests.
//
// Two kinds of content live here:
//  * the per-level table accessors the dispatcher links against, and
//  * the per-element scalar helpers that DEFINE the arithmetic contract.
//    SIMD translation units call these for loop tails, so a helper changed
//    here changes every level at once and bit-exactness is preserved by
//    construction.
#pragma once

#include <cmath>
#include <cstdint>

#include "kernels/kernels.h"

namespace livo::kernels {

// Scalar reference table (always present).
const KernelTable& ScalarTable();

// Per-ISA tables; each is defined only in its own translation unit, which
// the build adds when the compiler supports the ISA. dispatch.cc references
// them under the matching LIVO_KERNELS_HAVE_* macro.
const KernelTable* Sse42Table();
const KernelTable* Avx2Table();
const KernelTable* NeonTable();

// Orthonormal 8x8 DCT-II basis: basis[k][n] = c(k) cos((2n+1) k pi / 16).
// Built once in the scalar TU; SIMD TUs derive their (transposed) copies
// from these exact doubles so every level multiplies by identical values.
const double (*DctBasis())[kDctSize];

namespace ref {

// Rounding contract of the codec: round-half-away-from-zero, expressed as
// truncation of v +/- 0.5 so scalar code and SIMD cvttpd produce identical
// integers. (Differs from std::lround only when v + 0.5 is not exactly
// representable — a measure-zero set the codec never pins behavior on.)
inline std::int32_t RoundHalfAway(double v) {
  return static_cast<std::int32_t>(v + std::copysign(0.5, v));
}

inline std::uint16_t ClampRound255U16(double v) {
  const std::int32_t r = RoundHalfAway(v);
  return static_cast<std::uint16_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
}

inline std::uint8_t ClampRound255U8(double v) {
  const std::int32_t r = RoundHalfAway(v);
  return static_cast<std::uint8_t>(r < 0 ? 0 : (r > 255 ? 255 : r));
}

// BT.601 full-range pixel conversions (mirrors video/color_convert.h).
inline void RgbPixelToYcbcr(std::uint8_t r, std::uint8_t g, std::uint8_t b,
                            std::uint16_t* y, std::uint16_t* cb,
                            std::uint16_t* cr) {
  const double rf = r, gf = g, bf = b;
  const double yf = 0.299 * rf + 0.587 * gf + 0.114 * bf;
  *y = ClampRound255U16(yf);
  *cb = ClampRound255U16(128.0 + 0.564 * (bf - yf));
  *cr = ClampRound255U16(128.0 + 0.713 * (rf - yf));
}

inline void YcbcrPixelToRgb(std::uint16_t y, std::uint16_t cb,
                            std::uint16_t cr, std::uint8_t* r, std::uint8_t* g,
                            std::uint8_t* b) {
  const double yf = y;
  const double db = cb - 128.0;
  const double dr = cr - 128.0;
  const double rf = yf + 1.403 * dr;
  const double bf = yf + 1.773 * db;
  const double gf = (yf - 0.299 * rf - 0.114 * bf) / 0.587;
  *r = ClampRound255U8(rf);
  *g = ClampRound255U8(gf);
  *b = ClampRound255U8(bf);
}

// image::DepthScaler arithmetic (kept dependency-free; the equivalence with
// DepthScaler is pinned exhaustively in tests/test_kernels.cc).
inline std::uint16_t ScaleDepthPixel(std::uint16_t d,
                                     std::uint32_t max_range_mm) {
  if (d == 0) return 0;
  const std::uint32_t clamped = d > max_range_mm ? max_range_mm : d;
  return static_cast<std::uint16_t>(
      (static_cast<std::uint64_t>(clamped) * 65535ull) / max_range_mm);
}

inline std::uint16_t UnscaleDepthPixel(std::uint16_t s,
                                       std::uint32_t max_range_mm) {
  return static_cast<std::uint16_t>(
      (static_cast<std::uint64_t>(s) * max_range_mm + 32767ull) / 65535ull);
}

// Classifies one pixel of a depth row against a camera-local frustum,
// mirroring geom::CameraIntrinsics::Unproject + geom::Frustum::Contains
// operation for operation.
inline std::uint8_t CullClassifyPixel(std::uint16_t d, double u, double v,
                                      const FrustumKernelParams& p) {
  if (d == 0) return kCullInvalid;
  const double z = d / 1000.0;
  const double lx = (u - p.cx) / p.fx * z;
  const double ly = -(v - p.cy) / p.fy * z;
  const double lz = -z;
  for (int i = 0; i < 6; ++i) {
    const double dist = p.nx[i] * lx + p.ny[i] * ly + p.nz[i] * lz + p.d[i];
    if (dist < 0.0) return kCullOutside;
  }
  return kCullInside;
}

// Index rules of the 2x resamplers. Downscale output index i reads source
// indices Downscale2xFirst(i, n) and Downscale2xSecond of that, upscale
// output index i reads Upscale2xSource(i, n); all clamp to the n source
// samples, so the edge replicates.
inline int Downscale2xFirst(int i, int n) { return 2 * i < n - 1 ? 2 * i : n - 1; }
inline int Downscale2xSecond(int first, int n) {
  return first + 1 < n ? first + 1 : first;
}
inline int Upscale2xSource(int i, int n) { return i / 2 < n - 1 ? i / 2 : n - 1; }

// Column x of the box-filtered 2x downscale of source rows r0 and r1
// (round-half-up mean of the 2x2 block).
inline std::uint16_t Downscale2xAvgPixel(const std::uint16_t* r0,
                                         const std::uint16_t* r1, int sw,
                                         int x) {
  const int x0 = Downscale2xFirst(x, sw);
  const int x1 = Downscale2xSecond(x0, sw);
  const std::uint32_t sum =
      static_cast<std::uint32_t>(r0[x0]) + r0[x1] + r1[x0] + r1[x1];
  return static_cast<std::uint16_t>((sum + 2u) >> 2);
}

// Scalar kernel entry points, exported so SIMD TUs can delegate loop tails
// and inherit kernels they do not override.
void ForwardDct(const double* spatial, double* freq);
void InverseDct(const double* freq, double* spatial);
long long SadBlock(const std::int32_t* a, const std::int32_t* b);
std::uint64_t SsdBlockU16(const std::uint16_t* a, int a_stride,
                          const std::uint16_t* b, int b_stride);
int SadRow8U16(const std::int32_t* src, const std::uint16_t* ref);
bool QuantizeResidual(const std::int32_t* residual, double step,
                      std::int32_t* levels);
void ReconstructResidual(const std::int32_t* levels, double step,
                         std::int32_t* residual);
void RgbToYcbcr(const std::uint8_t* r, const std::uint8_t* g,
                const std::uint8_t* b, std::uint16_t* y, std::uint16_t* cb,
                std::uint16_t* cr, std::size_t n);
void YcbcrToRgb(const std::uint16_t* y, const std::uint16_t* cb,
                const std::uint16_t* cr, std::uint8_t* r, std::uint8_t* g,
                std::uint8_t* b, std::size_t n);
void ScaleDepth(const std::uint16_t* in, std::uint16_t* out, std::size_t n,
                std::uint32_t max_range_mm);
void UnscaleDepth(const std::uint16_t* in, std::uint16_t* out, std::size_t n,
                  std::uint32_t max_range_mm);
std::uint64_t SumSqDiffU16(const std::uint16_t* a, const std::uint16_t* b,
                           std::size_t n);
std::uint64_t SumSqDiffU8(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t n);
void CullClassifyRow(const std::uint16_t* depth, int width, double v,
                     const FrustumKernelParams& params, std::uint8_t* mask);
void Downscale2xAvgU16(const std::uint16_t* src, int sw, int sh,
                       std::uint16_t* dst, int dw, int dh);
void Downscale2xPickU16(const std::uint16_t* src, int sw, int sh,
                        std::uint16_t* dst, int dw, int dh);
void Upscale2xU16(const std::uint16_t* src, int sw, int sh, std::uint16_t* dst,
                  int dw, int dh);

}  // namespace ref
}  // namespace livo::kernels
