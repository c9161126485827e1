// SSE4.2 kernel table. Overrides only the integer kernels — SAD/SSD block
// matching and squared-difference accumulation — where 128-bit integer SIMD
// is a clear win; double-precision kernels inherit the scalar reference
// (2-lane double SIMD is not worth the code). Integer arithmetic is exact,
// so bit-exactness with the scalar table holds by construction.
//
// Uses SSSE3 (_mm_abs_epi32) and SSE4.1 (_mm_cvtepu16_epi32 / cvtepu8_epi32
// / _mm_mul_epi32) intrinsics; the TU builds with -msse4.2.
#include <smmintrin.h>

#include <cstring>

#include "kernels/kernels_impl.h"

namespace livo::kernels {
namespace {

inline long long HsumI32(__m128i v) {
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(v);
}

inline std::uint64_t HsumU64(__m128i v) {
  return static_cast<std::uint64_t>(_mm_extract_epi64(v, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(v, 1));
}

// 64-bit squares of the two even (lanes 0,2) and two odd (lanes 1,3) int32
// elements, accumulated into acc. mul_epi32 reads the low dword of each
// 64-bit lane as signed, so shifting the odd lanes down keeps the sign.
inline __m128i AccumulateSquares(__m128i acc, __m128i d) {
  const __m128i even = _mm_mul_epi32(d, d);
  const __m128i dodd = _mm_srli_epi64(d, 32);
  const __m128i odd = _mm_mul_epi32(dodd, dodd);
  return _mm_add_epi64(acc, _mm_add_epi64(even, odd));
}

long long SadBlockSse42(const std::int32_t* a, const std::int32_t* b) {
  __m128i acc = _mm_setzero_si128();
  for (int i = 0; i < kDctPixels; i += 4) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    acc = _mm_add_epi32(acc, _mm_abs_epi32(_mm_sub_epi32(va, vb)));
  }
  return HsumI32(acc);
}

std::uint64_t SsdBlockU16Sse42(const std::uint16_t* a, int a_stride,
                               const std::uint16_t* b, int b_stride) {
  __m128i acc = _mm_setzero_si128();
  for (int y = 0; y < kDctSize; ++y) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + y * a_stride));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + y * b_stride));
    acc = AccumulateSquares(acc, _mm_sub_epi32(_mm_cvtepu16_epi32(va),
                                               _mm_cvtepu16_epi32(vb)));
    acc = AccumulateSquares(
        acc, _mm_sub_epi32(_mm_cvtepu16_epi32(_mm_srli_si128(va, 8)),
                           _mm_cvtepu16_epi32(_mm_srli_si128(vb, 8))));
  }
  return HsumU64(acc);
}

int SadRow8U16Sse42(const std::int32_t* src, const std::uint16_t* ref) {
  const __m128i r16 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ref));
  const __m128i s0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
  const __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 4));
  const __m128i r0 = _mm_cvtepu16_epi32(r16);
  const __m128i r1 = _mm_cvtepu16_epi32(_mm_srli_si128(r16, 8));
  const __m128i d = _mm_add_epi32(_mm_abs_epi32(_mm_sub_epi32(s0, r0)),
                                  _mm_abs_epi32(_mm_sub_epi32(s1, r1)));
  return static_cast<int>(HsumI32(d));
}

std::uint64_t SumSqDiffU16Sse42(const std::uint16_t* a, const std::uint16_t* b,
                                std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i va = _mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i)));
    const __m128i vb = _mm_cvtepu16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i)));
    acc = AccumulateSquares(acc, _mm_sub_epi32(va, vb));
  }
  std::uint64_t s = HsumU64(acc);
  if (i < n) s += ref::SumSqDiffU16(a + i, b + i, n - i);
  return s;
}

std::uint64_t SumSqDiffU8Sse42(const std::uint8_t* a, const std::uint8_t* b,
                               std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t ra, rb;
    std::memcpy(&ra, a + i, 4);
    std::memcpy(&rb, b + i, 4);
    const __m128i va =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(ra)));
    const __m128i vb =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(rb)));
    acc = AccumulateSquares(acc, _mm_sub_epi32(va, vb));
  }
  std::uint64_t s = HsumU64(acc);
  if (i < n) s += ref::SumSqDiffU8(a + i, b + i, n - i);
  return s;
}

}  // namespace

const KernelTable* Sse42Table() {
  static const KernelTable table = [] {
    KernelTable t = ScalarTable();
    t.name = "sse42";
    t.level = SimdLevel::kSse42;
    t.sad_block = SadBlockSse42;
    t.ssd_block_u16 = SsdBlockU16Sse42;
    t.sad_row8_u16 = SadRow8U16Sse42;
    t.sum_sq_diff_u16 = SumSqDiffU16Sse42;
    t.sum_sq_diff_u8 = SumSqDiffU8Sse42;
    return t;
  }();
  return &table;
}

}  // namespace livo::kernels
