// NEON kernel table (aarch64). Like SSE4.2, overrides only the integer
// kernels; double-precision kernels inherit the scalar reference, and so do
// the 2x scalers and the plane-row SSD (`ssd_block_u16`), which have no NEON
// port that was run on an aarch64 host. The build only compiles this TU on
// aarch64 targets, where NEON is baseline — no runtime feature probe is
// needed.
#include <arm_neon.h>

#include "kernels/kernels_impl.h"

namespace livo::kernels {
namespace {

long long SadBlockNeon(const std::int32_t* a, const std::int32_t* b) {
  int32x4_t acc = vdupq_n_s32(0);
  for (int i = 0; i < kDctPixels; i += 4) {
    const int32x4_t va = vld1q_s32(a + i);
    const int32x4_t vb = vld1q_s32(b + i);
    acc = vaddq_s32(acc, vabsq_s32(vsubq_s32(va, vb)));
  }
  return vaddvq_s32(acc);
}

int SadRow8U16Neon(const std::int32_t* src, const std::uint16_t* ref) {
  const uint16x8_t r16 = vld1q_u16(ref);
  const int32x4_t r0 = vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(r16)));
  const int32x4_t r1 = vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(r16)));
  const int32x4_t d0 = vabsq_s32(vsubq_s32(vld1q_s32(src), r0));
  const int32x4_t d1 = vabsq_s32(vsubq_s32(vld1q_s32(src + 4), r1));
  return vaddvq_s32(vaddq_s32(d0, d1));
}

std::uint64_t SumSqDiffU16Neon(const std::uint16_t* a, const std::uint16_t* b,
                               std::size_t n) {
  int64x2_t acc = vdupq_n_s64(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t va = vld1q_u16(a + i);
    const uint16x8_t vb = vld1q_u16(b + i);
    const int32x4_t d0 =
        vsubq_s32(vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(va))),
                  vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(vb))));
    const int32x4_t d1 =
        vsubq_s32(vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(va))),
                  vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(vb))));
    acc = vaddq_s64(acc, vmull_s32(vget_low_s32(d0), vget_low_s32(d0)));
    acc = vaddq_s64(acc, vmull_s32(vget_high_s32(d0), vget_high_s32(d0)));
    acc = vaddq_s64(acc, vmull_s32(vget_low_s32(d1), vget_low_s32(d1)));
    acc = vaddq_s64(acc, vmull_s32(vget_high_s32(d1), vget_high_s32(d1)));
  }
  std::uint64_t s = static_cast<std::uint64_t>(vaddvq_s64(acc));
  if (i < n) s += ref::SumSqDiffU16(a + i, b + i, n - i);
  return s;
}

std::uint64_t SumSqDiffU8Neon(const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t n) {
  // u8 diffs fit u16; squares fit u32; widen-accumulate into u64 pairs.
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint8x8_t va = vld1_u8(a + i);
    const uint8x8_t vb = vld1_u8(b + i);
    const uint8x8_t d = vabd_u8(va, vb);
    const uint16x8_t d16 = vmovl_u8(d);
    const uint32x4_t sq0 = vmull_u16(vget_low_u16(d16), vget_low_u16(d16));
    const uint32x4_t sq1 = vmull_u16(vget_high_u16(d16), vget_high_u16(d16));
    acc = vaddq_u64(acc, vpaddlq_u32(sq0));
    acc = vaddq_u64(acc, vpaddlq_u32(sq1));
  }
  std::uint64_t s = vaddvq_u64(acc);
  if (i < n) s += ref::SumSqDiffU8(a + i, b + i, n - i);
  return s;
}

}  // namespace

const KernelTable* NeonTable() {
  static const KernelTable table = [] {
    KernelTable t = ScalarTable();
    t.name = "neon";
    t.level = SimdLevel::kNeon;
    t.sad_block = SadBlockNeon;
    t.sad_row8_u16 = SadRow8U16Neon;
    t.sum_sq_diff_u16 = SumSqDiffU16Neon;
    t.sum_sq_diff_u8 = SumSqDiffU8Neon;
    return t;
  }();
  return &table;
}

}  // namespace livo::kernels
