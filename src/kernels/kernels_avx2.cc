// AVX2 kernel table. Compiled with -mavx2 (per-file flag; the rest of the
// tree stays baseline) and -ffp-contract=off.
//
// Bit-exactness strategy: floating-point kernels vectorize across
// INDEPENDENT outputs (4 doubles per vector), so each lane performs the
// same multiplies and same-order additions as one scalar output. No FMA is
// used (mul + add only), divisions divide the same operands, and rounding
// is the shared trunc(v + copysign(0.5, v)) contract which maps directly
// onto cvttpd. Integer kernels are exact regardless of order. Loop tails
// delegate to the scalar reference helpers.
#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "kernels/kernels_impl.h"

namespace livo::kernels {
namespace {

// ---- small helpers -------------------------------------------------------

inline __m128i Load4U16AsI32(const std::uint16_t* p) {
  return _mm_cvtepu16_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

inline void Store4I32AsU16(std::uint16_t* p, __m128i v) {
  const __m128i packed = _mm_packus_epi32(v, v);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), packed);
}

inline __m128i Load4U8AsI32(const std::uint8_t* p) {
  std::uint32_t raw;
  std::memcpy(&raw, p, 4);
  return _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(raw)));
}

inline void Store4I32AsU8(std::uint8_t* p, __m128i v) {
  const __m128i p16 = _mm_packus_epi32(v, v);
  const __m128i p8 = _mm_packus_epi16(p16, p16);
  const std::uint32_t raw = static_cast<std::uint32_t>(_mm_cvtsi128_si32(p8));
  std::memcpy(p, &raw, 4);
}

// trunc(v + copysign(0.5, v)) -> int32, the shared rounding contract.
inline __m128i RoundHalfAway4(__m256d v) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d half = _mm256_or_pd(_mm256_set1_pd(0.5),
                                    _mm256_and_pd(v, sign_mask));
  return _mm256_cvttpd_epi32(_mm256_add_pd(v, half));
}

inline __m128i Clamp255(__m128i v) {
  return _mm_min_epi32(_mm_max_epi32(v, _mm_setzero_si128()),
                       _mm_set1_epi32(255));
}

inline long long HsumI32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// 64-bit squares of the eight int32 lanes of d, accumulated into acc.
// mul_epi32 squares the low dword of each 64-bit lane as signed, so the
// odd lanes are shifted down first.
inline __m256i AccumulateSquares(__m256i acc, __m256i d) {
  const __m256i even = _mm256_mul_epi32(d, d);
  const __m256i dodd = _mm256_srli_epi64(d, 32);
  const __m256i odd = _mm256_mul_epi32(dodd, dodd);
  return _mm256_add_epi64(acc, _mm256_add_epi64(even, odd));
}

inline std::uint64_t HsumU64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

// ---- 8x8 DCT -------------------------------------------------------------

// basis b[k][n] plus its transpose bt[n][k], both copied from the exact
// doubles of the scalar reference basis.
struct DctTables {
  alignas(32) double b[kDctSize][kDctSize];
  alignas(32) double bt[kDctSize][kDctSize];
  DctTables() {
    const auto* src = DctBasis();
    for (int k = 0; k < kDctSize; ++k) {
      for (int n = 0; n < kDctSize; ++n) {
        b[k][n] = src[k][n];
        bt[n][k] = src[k][n];
      }
    }
  }
};

const DctTables& Tables() {
  static const DctTables tables;
  return tables;
}

void ForwardDctAvx2(const double* spatial, double* freq) {
  const DctTables& t = Tables();
  alignas(32) double tmp[kDctSize][kDctSize];
  // Rows: tmp[y][k] = sum_x spatial[y][x] * b[k][x]; lanes = k.
  for (int y = 0; y < kDctSize; ++y) {
    for (int kq = 0; kq < kDctSize; kq += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int x = 0; x < kDctSize; ++x) {
        const __m256d bx = _mm256_load_pd(&t.bt[x][kq]);
        const __m256d sx = _mm256_set1_pd(spatial[y * kDctSize + x]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(sx, bx));
      }
      _mm256_store_pd(&tmp[y][kq], acc);
    }
  }
  // Columns: freq[k][j] = sum_y tmp[y][j] * b[k][y]; lanes = j.
  for (int k = 0; k < kDctSize; ++k) {
    for (int jq = 0; jq < kDctSize; jq += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int y = 0; y < kDctSize; ++y) {
        const __m256d ty = _mm256_load_pd(&tmp[y][jq]);
        const __m256d by = _mm256_set1_pd(t.b[k][y]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(ty, by));
      }
      _mm256_storeu_pd(&freq[k * kDctSize + jq], acc);
    }
  }
}

void InverseDctAvx2(const double* freq, double* spatial) {
  const DctTables& t = Tables();
  alignas(32) double tmp[kDctSize][kDctSize];
  // Columns: tmp[y][j] = sum_k freq[k][j] * b[k][y]; lanes = j.
  for (int y = 0; y < kDctSize; ++y) {
    for (int jq = 0; jq < kDctSize; jq += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int k = 0; k < kDctSize; ++k) {
        const __m256d fk = _mm256_loadu_pd(&freq[k * kDctSize + jq]);
        const __m256d by = _mm256_set1_pd(t.b[k][y]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(fk, by));
      }
      _mm256_store_pd(&tmp[y][jq], acc);
    }
  }
  // Rows: spatial[y][x] = sum_k tmp[y][k] * b[k][x]; lanes = x.
  for (int y = 0; y < kDctSize; ++y) {
    for (int xq = 0; xq < kDctSize; xq += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (int k = 0; k < kDctSize; ++k) {
        const __m256d bk = _mm256_load_pd(&t.b[k][xq]);
        const __m256d tk = _mm256_set1_pd(tmp[y][k]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(tk, bk));
      }
      _mm256_storeu_pd(&spatial[y * kDctSize + xq], acc);
    }
  }
}

// ---- integer block kernels -----------------------------------------------

long long SadBlockAvx2(const std::int32_t* a, const std::int32_t* b) {
  __m256i acc = _mm256_setzero_si256();
  for (int i = 0; i < kDctPixels; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi32(acc, _mm256_abs_epi32(_mm256_sub_epi32(va, vb)));
  }
  return HsumI32(acc);
}

std::uint64_t SsdBlockU16Avx2(const std::uint16_t* a, int a_stride,
                              const std::uint16_t* b, int b_stride) {
  __m256i acc = _mm256_setzero_si256();
  for (int y = 0; y < kDctSize; ++y) {
    const __m256i va = _mm256_cvtepu16_epi32(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(a + y * a_stride)));
    const __m256i vb = _mm256_cvtepu16_epi32(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b + y * b_stride)));
    acc = AccumulateSquares(acc, _mm256_sub_epi32(va, vb));
  }
  return HsumU64(acc);
}

int SadRow8U16Avx2(const std::int32_t* src, const std::uint16_t* ref) {
  const __m256i vs =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
  const __m256i vr = _mm256_cvtepu16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(ref)));
  const __m256i d = _mm256_abs_epi32(_mm256_sub_epi32(vs, vr));
  return static_cast<int>(HsumI32(d));
}

// ---- residual quantization ----------------------------------------------

bool QuantizeResidualAvx2(const std::int32_t* residual, double step,
                          std::int32_t* levels) {
  alignas(32) double spatial[kDctPixels], freq[kDctPixels];
  for (int i = 0; i < kDctPixels; i += 4) {
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(residual + i));
    _mm256_store_pd(&spatial[i], _mm256_cvtepi32_pd(r));
  }
  ForwardDctAvx2(spatial, freq);
  const __m256d vstep = _mm256_set1_pd(step);
  bool any = false;
  for (int i = 0; i < kDctPixels; i += 4) {
    const __m256d q = _mm256_div_pd(_mm256_load_pd(&freq[i]), vstep);
    const __m128i r = RoundHalfAway4(q);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(levels + i), r);
    const __m128i eq = _mm_cmpeq_epi32(r, _mm_setzero_si128());
    any = any || _mm_movemask_epi8(eq) != 0xFFFF;
  }
  return any;
}

void ReconstructResidualAvx2(const std::int32_t* levels, double step,
                             std::int32_t* residual) {
  alignas(32) double freq[kDctPixels], spatial[kDctPixels];
  const __m256d vstep = _mm256_set1_pd(step);
  for (int i = 0; i < kDctPixels; i += 4) {
    const __m128i l =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(levels + i));
    _mm256_store_pd(&freq[i], _mm256_mul_pd(_mm256_cvtepi32_pd(l), vstep));
  }
  InverseDctAvx2(freq, spatial);
  for (int i = 0; i < kDctPixels; i += 4) {
    const __m128i r = RoundHalfAway4(_mm256_load_pd(&spatial[i]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(residual + i), r);
  }
}

// ---- color conversion ----------------------------------------------------

void RgbToYcbcrAvx2(const std::uint8_t* r, const std::uint8_t* g,
                    const std::uint8_t* b, std::uint16_t* y, std::uint16_t* cb,
                    std::uint16_t* cr, std::size_t n) {
  const __m256d c299 = _mm256_set1_pd(0.299);
  const __m256d c587 = _mm256_set1_pd(0.587);
  const __m256d c114 = _mm256_set1_pd(0.114);
  const __m256d c564 = _mm256_set1_pd(0.564);
  const __m256d c713 = _mm256_set1_pd(0.713);
  const __m256d c128 = _mm256_set1_pd(128.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d rf = _mm256_cvtepi32_pd(Load4U8AsI32(r + i));
    const __m256d gf = _mm256_cvtepi32_pd(Load4U8AsI32(g + i));
    const __m256d bf = _mm256_cvtepi32_pd(Load4U8AsI32(b + i));
    const __m256d yf = _mm256_add_pd(
        _mm256_add_pd(_mm256_mul_pd(c299, rf), _mm256_mul_pd(c587, gf)),
        _mm256_mul_pd(c114, bf));
    const __m256d cbf =
        _mm256_add_pd(c128, _mm256_mul_pd(c564, _mm256_sub_pd(bf, yf)));
    const __m256d crf =
        _mm256_add_pd(c128, _mm256_mul_pd(c713, _mm256_sub_pd(rf, yf)));
    Store4I32AsU16(y + i, Clamp255(RoundHalfAway4(yf)));
    Store4I32AsU16(cb + i, Clamp255(RoundHalfAway4(cbf)));
    Store4I32AsU16(cr + i, Clamp255(RoundHalfAway4(crf)));
  }
  for (; i < n; ++i) ref::RgbPixelToYcbcr(r[i], g[i], b[i], &y[i], &cb[i], &cr[i]);
}

void YcbcrToRgbAvx2(const std::uint16_t* y, const std::uint16_t* cb,
                    const std::uint16_t* cr, std::uint8_t* r, std::uint8_t* g,
                    std::uint8_t* b, std::size_t n) {
  const __m256d c1403 = _mm256_set1_pd(1.403);
  const __m256d c1773 = _mm256_set1_pd(1.773);
  const __m256d c299 = _mm256_set1_pd(0.299);
  const __m256d c114 = _mm256_set1_pd(0.114);
  const __m256d c587 = _mm256_set1_pd(0.587);
  const __m256d c128 = _mm256_set1_pd(128.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d yf = _mm256_cvtepi32_pd(Load4U16AsI32(y + i));
    const __m256d db = _mm256_sub_pd(_mm256_cvtepi32_pd(Load4U16AsI32(cb + i)), c128);
    const __m256d dr = _mm256_sub_pd(_mm256_cvtepi32_pd(Load4U16AsI32(cr + i)), c128);
    const __m256d rf = _mm256_add_pd(yf, _mm256_mul_pd(c1403, dr));
    const __m256d bf = _mm256_add_pd(yf, _mm256_mul_pd(c1773, db));
    const __m256d gf = _mm256_div_pd(
        _mm256_sub_pd(_mm256_sub_pd(yf, _mm256_mul_pd(c299, rf)),
                      _mm256_mul_pd(c114, bf)),
        c587);
    Store4I32AsU8(r + i, Clamp255(RoundHalfAway4(rf)));
    Store4I32AsU8(g + i, Clamp255(RoundHalfAway4(gf)));
    Store4I32AsU8(b + i, Clamp255(RoundHalfAway4(bf)));
  }
  for (; i < n; ++i) ref::YcbcrPixelToRgb(y[i], cb[i], cr[i], &r[i], &g[i], &b[i]);
}

// ---- depth scaling -------------------------------------------------------
//
// The integer reference computes floor(clamped * 65535 / max_range) and
// floor((scaled * max_range + 32767) / 65535). Both dividends are < 2^32
// (exact in double) and both exact quotients are either integers (division
// exact) or at least 1/65535 away from one, while the correctly-rounded
// double quotient errs by < 2^-36 — so trunc(double division) equals the
// integer floor for every input. tests/test_kernels.cc verifies this
// exhaustively over all 65536 depth values.

void ScaleDepthAvx2(const std::uint16_t* in, std::uint16_t* out, std::size_t n,
                    std::uint32_t max_range_mm) {
  const __m128i vmax = _mm_set1_epi32(static_cast<int>(max_range_mm));
  const __m256d vmaxd = _mm256_set1_pd(static_cast<double>(max_range_mm));
  const __m256d v65535 = _mm256_set1_pd(65535.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i d = Load4U16AsI32(in + i);
    const __m128i clamped = _mm_min_epi32(d, vmax);
    const __m256d q = _mm256_div_pd(
        _mm256_mul_pd(_mm256_cvtepi32_pd(clamped), v65535), vmaxd);
    __m128i res = _mm256_cvttpd_epi32(q);
    // invalid (0) depth stays 0
    res = _mm_andnot_si128(_mm_cmpeq_epi32(d, _mm_setzero_si128()), res);
    Store4I32AsU16(out + i, res);
  }
  for (; i < n; ++i) out[i] = ref::ScaleDepthPixel(in[i], max_range_mm);
}

void UnscaleDepthAvx2(const std::uint16_t* in, std::uint16_t* out,
                      std::size_t n, std::uint32_t max_range_mm) {
  if (max_range_mm > 65535u) {
    // Unscaled values can exceed 16 bits, where the scalar contract wraps
    // mod 2^16 but the packus store saturates (and the quotient overflows
    // the int32 conversion). Ranges beyond the uint16 domain take the
    // reference path.
    ref::UnscaleDepth(in, out, n, max_range_mm);
    return;
  }
  const __m256d vmaxd = _mm256_set1_pd(static_cast<double>(max_range_mm));
  const __m256d v65535 = _mm256_set1_pd(65535.0);
  const __m256d vbias = _mm256_set1_pd(32767.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d s = _mm256_cvtepi32_pd(Load4U16AsI32(in + i));
    const __m256d q = _mm256_div_pd(
        _mm256_add_pd(_mm256_mul_pd(s, vmaxd), vbias), v65535);
    Store4I32AsU16(out + i, _mm256_cvttpd_epi32(q));
  }
  for (; i < n; ++i) out[i] = ref::UnscaleDepthPixel(in[i], max_range_mm);
}

// ---- RMSE accumulation ---------------------------------------------------

std::uint64_t SumSqDiffU16Avx2(const std::uint16_t* a, const std::uint16_t* b,
                               std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = AccumulateSquares(acc, _mm256_sub_epi32(va, vb));
  }
  std::uint64_t s = HsumU64(acc);
  if (i < n) s += ref::SumSqDiffU16(a + i, b + i, n - i);
  return s;
}

std::uint64_t SumSqDiffU8Avx2(const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i)));
    acc = AccumulateSquares(acc, _mm256_sub_epi32(va, vb));
  }
  std::uint64_t s = HsumU64(acc);
  if (i < n) s += ref::SumSqDiffU8(a + i, b + i, n - i);
  return s;
}

// ---- frustum culling sweep ----------------------------------------------

void CullClassifyRowAvx2(const std::uint16_t* depth, int width, double v,
                         const FrustumKernelParams& p, std::uint8_t* mask) {
  // Row-constant factor of the ly term, computed with the scalar reference
  // op order: -(v - cy) / fy. Per pixel ly = lyc * z matches
  // (-(v - cy) / fy) * z exactly.
  const double lyc = -(v - p.cy) / p.fy;
  const __m256d vlyc = _mm256_set1_pd(lyc);
  const __m256d vcx = _mm256_set1_pd(p.cx);
  const __m256d vfx = _mm256_set1_pd(p.fx);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m256d v1000 = _mm256_set1_pd(1000.0);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m128i lane_idx = _mm_setr_epi32(0, 1, 2, 3);

  int x = 0;
  for (; x + 4 <= width; x += 4) {
    const __m128i d32 = Load4U16AsI32(depth + x);
    const __m128i xi = _mm_add_epi32(_mm_set1_epi32(x), lane_idx);
    const __m256d u = _mm256_add_pd(_mm256_cvtepi32_pd(xi), vhalf);
    const __m256d z = _mm256_div_pd(_mm256_cvtepi32_pd(d32), v1000);
    const __m256d lx =
        _mm256_mul_pd(_mm256_div_pd(_mm256_sub_pd(u, vcx), vfx), z);
    const __m256d ly = _mm256_mul_pd(vlyc, z);
    const __m256d lz = _mm256_xor_pd(z, sign_mask);

    __m256d outside = zero;
    for (int i = 0; i < 6; ++i) {
      const __m256d dist = _mm256_add_pd(
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(p.nx[i]), lx),
                            _mm256_mul_pd(_mm256_set1_pd(p.ny[i]), ly)),
              _mm256_mul_pd(_mm256_set1_pd(p.nz[i]), lz)),
          _mm256_set1_pd(p.d[i]));
      outside = _mm256_or_pd(outside, _mm256_cmp_pd(dist, zero, _CMP_LT_OQ));
    }
    const int out_bits = _mm256_movemask_pd(outside);
    const int invalid_bits = _mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(d32, _mm_setzero_si128())));
    for (int j = 0; j < 4; ++j) {
      mask[x + j] = (invalid_bits >> j) & 1
                        ? kCullInvalid
                        : ((out_bits >> j) & 1 ? kCullOutside : kCullInside);
    }
  }
  for (; x < width; ++x) {
    mask[x] = ref::CullClassifyPixel(depth[x], x + 0.5, v, p);
  }
}

// ---- 2x resampling -------------------------------------------------------
//
// Output columns whose source samples lie inside the row run in vectors of
// 16 outputs, from 32 source samples (downscale) or 8 (upscale); the
// clamped right edge and padded columns take the ref:: index rules.
// Integer arithmetic: exact.

inline __m256i Load16U16(const std::uint16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// The even-indexed samples of p[0..15] as 8 u32.
inline __m256i EvenU16(const std::uint16_t* p) {
  return _mm256_and_si256(Load16U16(p), _mm256_set1_epi32(0xFFFF));
}

// Sums of the sample pairs (2i, 2i + 1) of p[0..15] as 8 u32.
inline __m256i PairSumsU16(const std::uint16_t* p) {
  const __m256i v = Load16U16(p);
  return _mm256_add_epi32(_mm256_and_si256(v, _mm256_set1_epi32(0xFFFF)),
                          _mm256_srli_epi32(v, 16));
}

// Stores a's then b's 8 u32 (each <= 65535) as 16 u16, in order.
inline void Store16U32AsU16(std::uint16_t* p, __m256i a, __m256i b) {
  const __m256i packed = _mm256_permute4x64_epi64(_mm256_packus_epi32(a, b),
                                                  _MM_SHUFFLE(3, 1, 2, 0));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), packed);
}

void Downscale2xAvgU16Avx2(const std::uint16_t* src, int sw, int sh,
                           std::uint16_t* dst, int dw, int dh) {
  // Columns x < sw / 2 read the in-row pair (2x, 2x + 1).
  const int inner = std::min(dw, sw / 2);
  const __m256i two = _mm256_set1_epi32(2);
  for (int y = 0; y < dh; ++y) {
    const int y0 = ref::Downscale2xFirst(y, sh);
    const std::uint16_t* r0 = src + y0 * sw;
    const std::uint16_t* r1 = src + ref::Downscale2xSecond(y0, sh) * sw;
    std::uint16_t* out = dst + y * dw;
    int x = 0;
    for (; x + 16 <= inner; x += 16) {
      const __m256i lo = _mm256_add_epi32(PairSumsU16(r0 + 2 * x),
                                          PairSumsU16(r1 + 2 * x));
      const __m256i hi = _mm256_add_epi32(PairSumsU16(r0 + 2 * x + 16),
                                          PairSumsU16(r1 + 2 * x + 16));
      Store16U32AsU16(out + x,
                      _mm256_srli_epi32(_mm256_add_epi32(lo, two), 2),
                      _mm256_srli_epi32(_mm256_add_epi32(hi, two), 2));
    }
    for (; x < dw; ++x) out[x] = ref::Downscale2xAvgPixel(r0, r1, sw, x);
  }
}

void Downscale2xPickU16Avx2(const std::uint16_t* src, int sw, int sh,
                            std::uint16_t* dst, int dw, int dh) {
  const int inner = std::min(dw, sw / 2);  // columns x reading sample 2x
  for (int y = 0; y < dh; ++y) {
    const std::uint16_t* row = src + ref::Downscale2xFirst(y, sh) * sw;
    std::uint16_t* out = dst + y * dw;
    int x = 0;
    for (; x + 16 <= inner; x += 16) {
      Store16U32AsU16(out + x, EvenU16(row + 2 * x), EvenU16(row + 2 * x + 16));
    }
    for (; x < dw; ++x) out[x] = row[ref::Downscale2xFirst(x, sw)];
  }
}

void Upscale2xU16Avx2(const std::uint16_t* src, int sw, int sh,
                      std::uint16_t* dst, int dw, int dh) {
  // Column pairs (2i, 2i + 1) with i < sw repeat source sample i.
  const int inner = std::min(dw / 2, sw);
  for (int y = 0; y < dh; ++y) {
    std::uint16_t* out = dst + y * dw;
    const int sy = ref::Upscale2xSource(y, sh);
    if (y > 0 && sy == ref::Upscale2xSource(y - 1, sh)) {
      // Odd rows, and rows clamped to the last source row, read the same
      // source row as the row above.
      std::memcpy(out, out - dw, static_cast<std::size_t>(dw) * sizeof(*out));
      continue;
    }
    const std::uint16_t* row = src + sy * sw;
    int i = 0;
    for (; i + 8 <= inner; i += 8) {
      const __m256i v = _mm256_cvtepu16_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 2 * i),
                          _mm256_or_si256(v, _mm256_slli_epi32(v, 16)));
    }
    for (int x = 2 * i; x < dw; ++x) out[x] = row[ref::Upscale2xSource(x, sw)];
  }
}

}  // namespace

const KernelTable* Avx2Table() {
  static const KernelTable table = [] {
    KernelTable t = ScalarTable();
    t.name = "avx2";
    t.level = SimdLevel::kAvx2;
    t.forward_dct = ForwardDctAvx2;
    t.inverse_dct = InverseDctAvx2;
    t.sad_block = SadBlockAvx2;
    t.ssd_block_u16 = SsdBlockU16Avx2;
    t.sad_row8_u16 = SadRow8U16Avx2;
    t.quantize_residual = QuantizeResidualAvx2;
    t.reconstruct_residual = ReconstructResidualAvx2;
    t.rgb_to_ycbcr = RgbToYcbcrAvx2;
    t.ycbcr_to_rgb = YcbcrToRgbAvx2;
    t.scale_depth = ScaleDepthAvx2;
    t.unscale_depth = UnscaleDepthAvx2;
    t.sum_sq_diff_u16 = SumSqDiffU16Avx2;
    t.sum_sq_diff_u8 = SumSqDiffU8Avx2;
    t.cull_classify_row = CullClassifyRowAvx2;
    t.downscale2x_avg_u16 = Downscale2xAvgU16Avx2;
    t.downscale2x_pick_u16 = Downscale2xPickU16Avx2;
    t.upscale2x_u16 = Upscale2xU16Avx2;
    return t;
  }();
  return &table;
}

}  // namespace livo::kernels
