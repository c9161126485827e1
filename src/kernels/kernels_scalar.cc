// Scalar reference implementations — the semantic definition of every
// kernel. SIMD levels must reproduce these byte for byte; this TU (like the
// whole kernels library) builds with -ffp-contract=off so no FMA fusion can
// make the "reference" differ from the plain C++ it spells out.
#include <cmath>

#include "kernels/kernels_impl.h"

namespace livo::kernels {
namespace {

constexpr double kPi = 3.14159265358979323846;

struct DctBasisTable {
  double b[kDctSize][kDctSize];
  DctBasisTable() {
    for (int k = 0; k < kDctSize; ++k) {
      const double ck = k == 0 ? std::sqrt(1.0 / kDctSize)
                               : std::sqrt(2.0 / kDctSize);
      for (int n = 0; n < kDctSize; ++n) {
        b[k][n] = ck * std::cos((2 * n + 1) * k * kPi / (2.0 * kDctSize));
      }
    }
  }
};

}  // namespace

const double (*DctBasis())[kDctSize] {
  static const DctBasisTable table;
  return table.b;
}

namespace ref {

void ForwardDct(const double* spatial, double* freq) {
  const auto* b = DctBasis();
  double tmp[kDctSize][kDctSize];
  // Rows.
  for (int y = 0; y < kDctSize; ++y) {
    for (int k = 0; k < kDctSize; ++k) {
      double s = 0.0;
      for (int x = 0; x < kDctSize; ++x) s += spatial[y * kDctSize + x] * b[k][x];
      tmp[y][k] = s;
    }
  }
  // Columns.
  for (int k = 0; k < kDctSize; ++k) {
    for (int j = 0; j < kDctSize; ++j) {
      double s = 0.0;
      for (int y = 0; y < kDctSize; ++y) s += tmp[y][j] * b[k][y];
      freq[k * kDctSize + j] = s;
    }
  }
}

void InverseDct(const double* freq, double* spatial) {
  const auto* b = DctBasis();
  double tmp[kDctSize][kDctSize];
  // Columns (transpose of forward).
  for (int y = 0; y < kDctSize; ++y) {
    for (int j = 0; j < kDctSize; ++j) {
      double s = 0.0;
      for (int k = 0; k < kDctSize; ++k) s += freq[k * kDctSize + j] * b[k][y];
      tmp[y][j] = s;
    }
  }
  // Rows.
  for (int y = 0; y < kDctSize; ++y) {
    for (int x = 0; x < kDctSize; ++x) {
      double s = 0.0;
      for (int k = 0; k < kDctSize; ++k) s += tmp[y][k] * b[k][x];
      spatial[y * kDctSize + x] = s;
    }
  }
}

long long SadBlock(const std::int32_t* a, const std::int32_t* b) {
  long long s = 0;
  for (int i = 0; i < kDctPixels; ++i) s += std::abs(a[i] - b[i]);
  return s;
}

std::uint64_t SsdBlockU16(const std::uint16_t* a, int a_stride,
                          const std::uint16_t* b, int b_stride) {
  std::uint64_t s = 0;
  for (int y = 0; y < kDctSize; ++y) {
    s += SumSqDiffU16(a + y * a_stride, b + y * b_stride, kDctSize);
  }
  return s;
}

int SadRow8U16(const std::int32_t* src, const std::uint16_t* ref) {
  int s = 0;
  for (int x = 0; x < kDctSize; ++x) s += std::abs(src[x] - ref[x]);
  return s;
}

bool QuantizeResidual(const std::int32_t* residual, double step,
                      std::int32_t* levels) {
  double spatial[kDctPixels], freq[kDctPixels];
  for (int i = 0; i < kDctPixels; ++i) spatial[i] = residual[i];
  ForwardDct(spatial, freq);
  bool any = false;
  for (int i = 0; i < kDctPixels; ++i) {
    const std::int32_t q = RoundHalfAway(freq[i] / step);
    levels[i] = q;
    any = any || q != 0;
  }
  return any;
}

void ReconstructResidual(const std::int32_t* levels, double step,
                         std::int32_t* residual) {
  double freq[kDctPixels], spatial[kDctPixels];
  for (int i = 0; i < kDctPixels; ++i) freq[i] = levels[i] * step;
  InverseDct(freq, spatial);
  for (int i = 0; i < kDctPixels; ++i) residual[i] = RoundHalfAway(spatial[i]);
}

void RgbToYcbcr(const std::uint8_t* r, const std::uint8_t* g,
                const std::uint8_t* b, std::uint16_t* y, std::uint16_t* cb,
                std::uint16_t* cr, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    RgbPixelToYcbcr(r[i], g[i], b[i], &y[i], &cb[i], &cr[i]);
  }
}

void YcbcrToRgb(const std::uint16_t* y, const std::uint16_t* cb,
                const std::uint16_t* cr, std::uint8_t* r, std::uint8_t* g,
                std::uint8_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    YcbcrPixelToRgb(y[i], cb[i], cr[i], &r[i], &g[i], &b[i]);
  }
}

void ScaleDepth(const std::uint16_t* in, std::uint16_t* out, std::size_t n,
                std::uint32_t max_range_mm) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ScaleDepthPixel(in[i], max_range_mm);
}

void UnscaleDepth(const std::uint16_t* in, std::uint16_t* out, std::size_t n,
                  std::uint32_t max_range_mm) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = UnscaleDepthPixel(in[i], max_range_mm);
  }
}

std::uint64_t SumSqDiffU16(const std::uint16_t* a, const std::uint16_t* b,
                           std::size_t n) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t d = static_cast<std::int64_t>(a[i]) - b[i];
    s += static_cast<std::uint64_t>(d * d);
  }
  return s;
}

std::uint64_t SumSqDiffU8(const std::uint8_t* a, const std::uint8_t* b,
                          std::size_t n) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t d = static_cast<std::int64_t>(a[i]) - b[i];
    s += static_cast<std::uint64_t>(d * d);
  }
  return s;
}

void CullClassifyRow(const std::uint16_t* depth, int width, double v,
                     const FrustumKernelParams& params, std::uint8_t* mask) {
  for (int x = 0; x < width; ++x) {
    mask[x] = CullClassifyPixel(depth[x], x + 0.5, v, params);
  }
}

void Downscale2xAvgU16(const std::uint16_t* src, int sw, int sh,
                       std::uint16_t* dst, int dw, int dh) {
  for (int y = 0; y < dh; ++y) {
    const int y0 = Downscale2xFirst(y, sh);
    const std::uint16_t* r0 = src + y0 * sw;
    const std::uint16_t* r1 = src + Downscale2xSecond(y0, sh) * sw;
    for (int x = 0; x < dw; ++x) {
      dst[y * dw + x] = Downscale2xAvgPixel(r0, r1, sw, x);
    }
  }
}

void Downscale2xPickU16(const std::uint16_t* src, int sw, int sh,
                        std::uint16_t* dst, int dw, int dh) {
  for (int y = 0; y < dh; ++y) {
    const std::uint16_t* row = src + Downscale2xFirst(y, sh) * sw;
    for (int x = 0; x < dw; ++x) dst[y * dw + x] = row[Downscale2xFirst(x, sw)];
  }
}

void Upscale2xU16(const std::uint16_t* src, int sw, int sh, std::uint16_t* dst,
                  int dw, int dh) {
  for (int y = 0; y < dh; ++y) {
    const std::uint16_t* row = src + Upscale2xSource(y, sh) * sw;
    for (int x = 0; x < dw; ++x) dst[y * dw + x] = row[Upscale2xSource(x, sw)];
  }
}

}  // namespace ref

const KernelTable& ScalarTable() {
  static const KernelTable table = [] {
    KernelTable t;
    t.name = "scalar";
    t.level = SimdLevel::kScalar;
    t.forward_dct = ref::ForwardDct;
    t.inverse_dct = ref::InverseDct;
    t.sad_block = ref::SadBlock;
    t.ssd_block_u16 = ref::SsdBlockU16;
    t.sad_row8_u16 = ref::SadRow8U16;
    t.quantize_residual = ref::QuantizeResidual;
    t.reconstruct_residual = ref::ReconstructResidual;
    t.rgb_to_ycbcr = ref::RgbToYcbcr;
    t.ycbcr_to_rgb = ref::YcbcrToRgb;
    t.scale_depth = ref::ScaleDepth;
    t.unscale_depth = ref::UnscaleDepth;
    t.sum_sq_diff_u16 = ref::SumSqDiffU16;
    t.sum_sq_diff_u8 = ref::SumSqDiffU8;
    t.cull_classify_row = ref::CullClassifyRow;
    t.downscale2x_avg_u16 = ref::Downscale2xAvgU16;
    t.downscale2x_pick_u16 = ref::Downscale2xPickU16;
    t.upscale2x_u16 = ref::Upscale2xU16;
    return t;
  }();
  return table;
}

}  // namespace livo::kernels
