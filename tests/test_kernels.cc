// Differential tests for livo::kernels: every kernel, at every SIMD level
// available on this build + CPU, must be byte-identical to the scalar
// reference — on seeded random inputs, adversarial edge cases, and (for
// depth scaling) the exhaustive 16-bit input space. Also covers the
// dispatcher, the frame buffer pool, and the steady-state zero-allocation
// guarantee of the encode path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "geom/camera.h"
#include "geom/frustum.h"
#include "image/depth_encoding.h"
#include "image/plane_pool.h"
#include "kernels/buffer_pool.h"
#include "kernels/kernels.h"
#include "kernels/kernels_impl.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "video/color_convert.h"
#include "video/video_codec.h"

namespace livo {
namespace {

using kernels::KernelTable;
using kernels::SimdLevel;

// Restores best-available dispatch when a test that forces levels exits.
struct DispatchGuard {
  ~DispatchGuard() { kernels::ResetDispatchForTest(); }
};

std::vector<SimdLevel> SimdLevels() { return kernels::AvailableLevels(); }

// ---------------------------------------------------------------------------
// Dispatcher

TEST(KernelDispatch, ParseLevelNameRoundTrips) {
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSse42,
                          SimdLevel::kAvx2, SimdLevel::kNeon}) {
    const auto parsed = kernels::ParseLevelName(kernels::ToString(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(kernels::ParseLevelName("avx512").has_value());
  EXPECT_FALSE(kernels::ParseLevelName("").has_value());
  EXPECT_FALSE(kernels::ParseLevelName("max").has_value());  // dispatcher-only
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  const auto levels = SimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  ASSERT_NE(kernels::Table(SimdLevel::kScalar), nullptr);
  EXPECT_EQ(kernels::Table(SimdLevel::kScalar)->level, SimdLevel::kScalar);
}

TEST(KernelDispatch, EveryAvailableTableIsFullyPopulated) {
  for (SimdLevel level : SimdLevels()) {
    const KernelTable* t = kernels::Table(level);
    ASSERT_NE(t, nullptr) << kernels::ToString(level);
    EXPECT_NE(t->forward_dct, nullptr);
    EXPECT_NE(t->inverse_dct, nullptr);
    EXPECT_NE(t->sad_block, nullptr);
    EXPECT_NE(t->ssd_block_u16, nullptr);
    EXPECT_NE(t->sad_row8_u16, nullptr);
    EXPECT_NE(t->quantize_residual, nullptr);
    EXPECT_NE(t->reconstruct_residual, nullptr);
    EXPECT_NE(t->rgb_to_ycbcr, nullptr);
    EXPECT_NE(t->ycbcr_to_rgb, nullptr);
    EXPECT_NE(t->scale_depth, nullptr);
    EXPECT_NE(t->unscale_depth, nullptr);
    EXPECT_NE(t->sum_sq_diff_u16, nullptr);
    EXPECT_NE(t->sum_sq_diff_u8, nullptr);
    EXPECT_NE(t->cull_classify_row, nullptr);
    EXPECT_NE(t->downscale2x_avg_u16, nullptr);
    EXPECT_NE(t->downscale2x_pick_u16, nullptr);
    EXPECT_NE(t->upscale2x_u16, nullptr);
  }
}

TEST(KernelDispatch, ForceLevelSwitchesActiveTableAndGauge) {
  DispatchGuard guard;
  obs::Gauge& gauge = obs::Registry::Get().GetGauge("kernels.simd_level");
  for (SimdLevel level : SimdLevels()) {
    kernels::ForceLevel(level);
    EXPECT_EQ(kernels::ActiveLevel(), level);
    EXPECT_EQ(kernels::Active().level, level);
    EXPECT_EQ(gauge.value(), static_cast<double>(static_cast<int>(level)));
  }
}

TEST(KernelDispatch, ForceLevelThrowsForUnavailableLevel) {
  const auto levels = SimdLevels();
  for (SimdLevel level : {SimdLevel::kSse42, SimdLevel::kAvx2,
                          SimdLevel::kNeon}) {
    if (std::find(levels.begin(), levels.end(), level) == levels.end()) {
      EXPECT_THROW(kernels::ForceLevel(level), std::invalid_argument);
      EXPECT_EQ(kernels::Table(level), nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzzing: scalar reference vs every available level.
//
// Floating-point outputs are compared bit-for-bit (memcmp), not by value:
// the contract is byte-identical results, which even distinguishes 0.0 from
// -0.0 and demands identical rounding everywhere.

template <typename T>
void ExpectBitsEqual(const T* a, const T* b, std::size_t n, const char* what,
                     SimdLevel level) {
  ASSERT_EQ(std::memcmp(a, b, n * sizeof(T)), 0)
      << what << " diverges from scalar at level "
      << kernels::ToString(level);
}

TEST(KernelEquivalence, DctForwardInverseBitExact) {
  const KernelTable& ref = *kernels::Table(SimdLevel::kScalar);
  util::Rng rng(7001);
  for (int rep = 0; rep < 200; ++rep) {
    double spatial[kernels::kDctPixels];
    for (double& v : spatial) v = rng.Uniform(-70000.0, 70000.0);
    double want_f[kernels::kDctPixels], want_s[kernels::kDctPixels];
    ref.forward_dct(spatial, want_f);
    ref.inverse_dct(want_f, want_s);
    for (SimdLevel level : SimdLevels()) {
      const KernelTable& t = *kernels::Table(level);
      double got_f[kernels::kDctPixels], got_s[kernels::kDctPixels];
      t.forward_dct(spatial, got_f);
      t.inverse_dct(want_f, got_s);
      ExpectBitsEqual(want_f, got_f, kernels::kDctPixels, "forward_dct", level);
      ExpectBitsEqual(want_s, got_s, kernels::kDctPixels, "inverse_dct", level);
    }
  }
}

// 64-bit sum of squared differences of the 8x8 blocks at `a` and `b`.
std::uint64_t BlockSsd(const std::uint16_t* a, int a_stride,
                       const std::uint16_t* b, int b_stride) {
  std::uint64_t s = 0;
  for (int y = 0; y < kernels::kDctSize; ++y) {
    for (int x = 0; x < kernels::kDctSize; ++x) {
      const std::int64_t d =
          static_cast<std::int64_t>(a[y * a_stride + x]) - b[y * b_stride + x];
      s += static_cast<std::uint64_t>(d * d);
    }
  }
  return s;
}

TEST(KernelEquivalence, SadSsdBitExact) {
  const KernelTable& ref = *kernels::Table(SimdLevel::kScalar);
  util::Rng rng(7002);
  for (int rep = 0; rep < 500; ++rep) {
    std::int32_t a[kernels::kDctPixels], b[kernels::kDctPixels];
    std::uint16_t r16[kernels::kDctSize];
    for (auto& v : a) v = rng.UniformInt(-70000, 70000);
    for (auto& v : b) v = rng.UniformInt(-70000, 70000);
    for (auto& v : r16) v = static_cast<std::uint16_t>(rng.NextBelow(65536));

    // ssd_block_u16 reads its blocks in place from two planes, one of odd
    // width. Every 4th block sits at both planes' right and bottom edges,
    // so reading past the block runs off the planes (ASan sees it). Every
    // 5th pits all 0 against all 65535, a sum that needs more than 32 bits.
    const int wa = 9 + 2 * rng.UniformInt(0, 7);
    const int wb = rng.UniformInt(8, 24);
    const int h = rng.UniformInt(8, 16);
    std::vector<std::uint16_t> pa(static_cast<std::size_t>(wa * h));
    std::vector<std::uint16_t> pb(static_cast<std::size_t>(wb * h));
    for (auto& v : pa) v = static_cast<std::uint16_t>(rng.NextBelow(65536));
    for (auto& v : pb) v = static_cast<std::uint16_t>(rng.NextBelow(65536));
    if (rep % 5 == 0) {
      std::fill(pa.begin(), pa.end(), std::uint16_t{0});
      std::fill(pb.begin(), pb.end(), std::uint16_t{65535});
    }
    const bool at_edge = rep % 4 == 0;
    const int y0 = at_edge ? h - 8 : rng.UniformInt(0, h - 8);
    const int xa = at_edge ? wa - 8 : rng.UniformInt(0, wa - 8);
    const int xb = at_edge ? wb - 8 : rng.UniformInt(0, wb - 8);
    const std::uint16_t* ba = pa.data() + y0 * wa + xa;
    const std::uint16_t* bb = pb.data() + y0 * wb + xb;
    const std::uint64_t want_ssd = BlockSsd(ba, wa, bb, wb);
    EXPECT_EQ(ref.ssd_block_u16(ba, wa, bb, wb), want_ssd);

    for (SimdLevel level : SimdLevels()) {
      const KernelTable& t = *kernels::Table(level);
      EXPECT_EQ(t.sad_block(a, b), ref.sad_block(a, b))
          << kernels::ToString(level);
      EXPECT_EQ(t.ssd_block_u16(ba, wa, bb, wb), want_ssd)
          << kernels::ToString(level);
      EXPECT_EQ(t.sad_row8_u16(a, r16), ref.sad_row8_u16(a, r16))
          << kernels::ToString(level);
    }
  }
}

TEST(KernelEquivalence, ResidualQuantizationBitExact) {
  const KernelTable& ref = *kernels::Table(SimdLevel::kScalar);
  util::Rng rng(7003);
  for (int rep = 0; rep < 300; ++rep) {
    std::int32_t residual[kernels::kDctPixels];
    for (auto& v : residual) v = rng.UniformInt(-65535, 65535);
    // Occasionally near-zero residuals so the all-zero-levels path runs.
    if (rep % 7 == 0) {
      for (auto& v : residual) v = rng.UniformInt(-1, 1);
    }
    const double step = rng.Uniform(0.5, 400.0);
    std::int32_t want_levels[kernels::kDctPixels];
    std::int32_t want_recon[kernels::kDctPixels];
    const bool want_any = ref.quantize_residual(residual, step, want_levels);
    ref.reconstruct_residual(want_levels, step, want_recon);
    for (SimdLevel level : SimdLevels()) {
      const KernelTable& t = *kernels::Table(level);
      std::int32_t got_levels[kernels::kDctPixels];
      std::int32_t got_recon[kernels::kDctPixels];
      EXPECT_EQ(t.quantize_residual(residual, step, got_levels), want_any)
          << kernels::ToString(level);
      t.reconstruct_residual(want_levels, step, got_recon);
      ExpectBitsEqual(want_levels, got_levels, kernels::kDctPixels,
                      "quantize_residual", level);
      ExpectBitsEqual(want_recon, got_recon, kernels::kDctPixels,
                      "reconstruct_residual", level);
    }
  }
}

TEST(KernelEquivalence, ColorConversionBitExact) {
  const KernelTable& ref = *kernels::Table(SimdLevel::kScalar);
  util::Rng rng(7004);
  // Ragged lengths exercise the SIMD tails.
  for (std::size_t n : {1u, 3u, 4u, 5u, 8u, 13u, 64u, 257u, 1024u}) {
    std::vector<std::uint8_t> r(n), g(n), b(n);
    std::vector<std::uint16_t> y(n), cb(n), cr(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
      g[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
      b[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
      // YCbCr planes live in 16-bit containers; include out-of-gamut values
      // so the clamping path is part of the contract.
      y[i] = static_cast<std::uint16_t>(rng.NextBelow(1024));
      cb[i] = static_cast<std::uint16_t>(rng.NextBelow(1024));
      cr[i] = static_cast<std::uint16_t>(rng.NextBelow(1024));
    }
    std::vector<std::uint16_t> want_y(n), want_cb(n), want_cr(n);
    std::vector<std::uint8_t> want_r(n), want_g(n), want_b(n);
    ref.rgb_to_ycbcr(r.data(), g.data(), b.data(), want_y.data(),
                     want_cb.data(), want_cr.data(), n);
    ref.ycbcr_to_rgb(y.data(), cb.data(), cr.data(), want_r.data(),
                     want_g.data(), want_b.data(), n);
    for (SimdLevel level : SimdLevels()) {
      const KernelTable& t = *kernels::Table(level);
      std::vector<std::uint16_t> got_y(n), got_cb(n), got_cr(n);
      std::vector<std::uint8_t> got_r(n), got_g(n), got_b(n);
      t.rgb_to_ycbcr(r.data(), g.data(), b.data(), got_y.data(),
                     got_cb.data(), got_cr.data(), n);
      t.ycbcr_to_rgb(y.data(), cb.data(), cr.data(), got_r.data(),
                     got_g.data(), got_b.data(), n);
      EXPECT_EQ(got_y, want_y) << kernels::ToString(level);
      EXPECT_EQ(got_cb, want_cb) << kernels::ToString(level);
      EXPECT_EQ(got_cr, want_cr) << kernels::ToString(level);
      EXPECT_EQ(got_r, want_r) << kernels::ToString(level);
      EXPECT_EQ(got_g, want_g) << kernels::ToString(level);
      EXPECT_EQ(got_b, want_b) << kernels::ToString(level);
    }
  }
}

// Exhaustive: all 65536 inputs, several ranges, every level, both
// directions — and the kernel contract must match image::DepthScaler's
// integer arithmetic exactly (the SIMD path proves a double-division
// reformulation; this pins the proof).
TEST(KernelEquivalence, DepthScalingExhaustiveMatchesDepthScaler) {
  std::vector<std::uint16_t> in(65536);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<std::uint16_t>(i);
  }
  for (std::uint32_t max_range : {1u, 977u, 6000u, 65535u, 100000u}) {
    const image::DepthScaler scaler{max_range};
    std::vector<std::uint16_t> want_scale(in.size()), want_unscale(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      want_scale[i] = scaler.Scale(in[i]);
      want_unscale[i] = scaler.Unscale(in[i]);
    }
    for (SimdLevel level : SimdLevels()) {
      const KernelTable& t = *kernels::Table(level);
      std::vector<std::uint16_t> got(in.size());
      t.scale_depth(in.data(), got.data(), in.size(), max_range);
      EXPECT_EQ(got, want_scale)
          << "scale_depth " << kernels::ToString(level) << " range "
          << max_range;
      t.unscale_depth(in.data(), got.data(), in.size(), max_range);
      EXPECT_EQ(got, want_unscale)
          << "unscale_depth " << kernels::ToString(level) << " range "
          << max_range;
      // In-place aliasing (the sender scales tiled depth in place).
      std::vector<std::uint16_t> inout = in;
      t.scale_depth(inout.data(), inout.data(), inout.size(), max_range);
      EXPECT_EQ(inout, want_scale)
          << "aliased scale_depth " << kernels::ToString(level);
    }
  }
}

TEST(KernelEquivalence, SumSqDiffBitExact) {
  const KernelTable& ref = *kernels::Table(SimdLevel::kScalar);
  util::Rng rng(7005);
  for (std::size_t n : {1u, 7u, 8u, 9u, 16u, 63u, 64u, 65u, 997u}) {
    std::vector<std::uint16_t> a16(n), b16(n);
    std::vector<std::uint8_t> a8(n), b8(n);
    for (std::size_t i = 0; i < n; ++i) {
      a16[i] = static_cast<std::uint16_t>(rng.NextBelow(65536));
      b16[i] = static_cast<std::uint16_t>(rng.NextBelow(65536));
      a8[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
      b8[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
    }
    const std::uint64_t want16 = ref.sum_sq_diff_u16(a16.data(), b16.data(), n);
    const std::uint64_t want8 = ref.sum_sq_diff_u8(a8.data(), b8.data(), n);
    for (SimdLevel level : SimdLevels()) {
      const KernelTable& t = *kernels::Table(level);
      EXPECT_EQ(t.sum_sq_diff_u16(a16.data(), b16.data(), n), want16)
          << kernels::ToString(level) << " n=" << n;
      EXPECT_EQ(t.sum_sq_diff_u8(a8.data(), b8.data(), n), want8)
          << kernels::ToString(level) << " n=" << n;
    }
  }
}

// The ladder's 2x resamplers, checked against their written contracts:
// `avg` box-filters with round-half-up, `pick` forwards the top-left
// sample untouched (so the depth 0-sentinel never blends), out-of-range
// destination texels replicate the clamped plane edge, and upscale is
// nearest-neighbor with the same edge clamp.
TEST(KernelScale, Downscale2xAndUpscale2xMatchTheirDefinitions) {
  const KernelTable& ref = *kernels::Table(SimdLevel::kScalar);
  util::Rng rng(7008);
  // Odd sources and destinations wider than ceil(s/2) exercise the clamp.
  const int sw = 9, sh = 5;
  const int dw = 8, dh = 4;  // > ceil(9/2)=5, > ceil(5/2)=3: padded columns
  std::vector<std::uint16_t> src(static_cast<std::size_t>(sw * sh));
  for (auto& v : src) {
    v = rng.NextBelow(4) == 0 ? 0
                              : static_cast<std::uint16_t>(rng.NextBelow(65536));
  }
  const auto at = [&](int x, int y) {
    return src[static_cast<std::size_t>(std::min(y, sh - 1) * sw +
                                        std::min(x, sw - 1))];
  };

  std::vector<std::uint16_t> avg(static_cast<std::size_t>(dw * dh));
  std::vector<std::uint16_t> pick(avg.size());
  ref.downscale2x_avg_u16(src.data(), sw, sh, avg.data(), dw, dh);
  ref.downscale2x_pick_u16(src.data(), sw, sh, pick.data(), dw, dh);
  for (int y = 0; y < dh; ++y) {
    for (int x = 0; x < dw; ++x) {
      const std::uint32_t sum = at(2 * x, 2 * y) + at(2 * x + 1, 2 * y) +
                                at(2 * x, 2 * y + 1) +
                                at(2 * x + 1, 2 * y + 1);
      const std::size_t i = static_cast<std::size_t>(y * dw + x);
      EXPECT_EQ(avg[i], static_cast<std::uint16_t>((sum + 2u) >> 2))
          << "avg at (" << x << "," << y << ")";
      EXPECT_EQ(pick[i], at(2 * x, 2 * y))
          << "pick at (" << x << "," << y << ")";
    }
  }
  // pick over a plane of sentinels stays all-sentinel (no blending path).
  std::fill(src.begin(), src.end(), std::uint16_t{0});
  ref.downscale2x_pick_u16(src.data(), sw, sh, pick.data(), dw, dh);
  for (const std::uint16_t v : pick) EXPECT_EQ(v, 0u);

  // Upscale: nearest-neighbor with the documented min(x/2, sw-1) clamp.
  const int uw = 2 * dw + 1, uh = 2 * dh + 1;  // odd: clamps the last texel
  std::vector<std::uint16_t> up(static_cast<std::size_t>(uw * uh));
  ref.upscale2x_u16(avg.data(), dw, dh, up.data(), uw, uh);
  for (int y = 0; y < uh; ++y) {
    for (int x = 0; x < uw; ++x) {
      const int sx = std::min(x / 2, dw - 1);
      const int sy = std::min(y / 2, dh - 1);
      EXPECT_EQ(up[static_cast<std::size_t>(y * uw + x)],
                avg[static_cast<std::size_t>(sy * dw + sx)])
          << "up at (" << x << "," << y << ")";
    }
  }
}

TEST(KernelEquivalence, Scale2xBitExactAcrossLevels) {
  const KernelTable& ref = *kernels::Table(SimdLevel::kScalar);
  util::Rng rng(7009);
  // Width sweep across SIMD lane boundaries; heights exercise odd rows.
  for (const auto& [sw, sh] : std::vector<std::pair<int, int>>{
           {1, 1}, {2, 2}, {7, 3}, {16, 8}, {17, 9}, {48, 40}, {129, 5}}) {
    std::vector<std::uint16_t> src(static_cast<std::size_t>(sw * sh));
    for (auto& v : src) v = static_cast<std::uint16_t>(rng.NextBelow(65536));
    const int dw = (sw + 1) / 2 + static_cast<int>(rng.NextBelow(3));
    const int dh = (sh + 1) / 2 + static_cast<int>(rng.NextBelow(3));
    std::vector<std::uint16_t> want_avg(static_cast<std::size_t>(dw * dh));
    std::vector<std::uint16_t> want_pick(want_avg.size());
    ref.downscale2x_avg_u16(src.data(), sw, sh, want_avg.data(), dw, dh);
    ref.downscale2x_pick_u16(src.data(), sw, sh, want_pick.data(), dw, dh);
    const int uw = 2 * sw - 1, uh = 2 * sh;
    std::vector<std::uint16_t> want_up(static_cast<std::size_t>(uw * uh));
    ref.upscale2x_u16(src.data(), sw, sh, want_up.data(), uw, uh);
    for (SimdLevel level : SimdLevels()) {
      const KernelTable& t = *kernels::Table(level);
      std::vector<std::uint16_t> got_avg(want_avg.size());
      std::vector<std::uint16_t> got_pick(want_pick.size());
      std::vector<std::uint16_t> got_up(want_up.size());
      t.downscale2x_avg_u16(src.data(), sw, sh, got_avg.data(), dw, dh);
      t.downscale2x_pick_u16(src.data(), sw, sh, got_pick.data(), dw, dh);
      t.upscale2x_u16(src.data(), sw, sh, got_up.data(), uw, uh);
      EXPECT_EQ(got_avg, want_avg)
          << kernels::ToString(level) << " avg " << sw << "x" << sh;
      EXPECT_EQ(got_pick, want_pick)
          << kernels::ToString(level) << " pick " << sw << "x" << sh;
      EXPECT_EQ(got_up, want_up)
          << kernels::ToString(level) << " up " << sw << "x" << sh;
    }
  }
}

kernels::FrustumKernelParams ParamsFrom(const geom::CameraIntrinsics& k,
                                        const geom::Frustum& frustum) {
  kernels::FrustumKernelParams p;
  for (int i = 0; i < 6; ++i) {
    p.nx[i] = frustum.planes()[i].normal.x;
    p.ny[i] = frustum.planes()[i].normal.y;
    p.nz[i] = frustum.planes()[i].normal.z;
    p.d[i] = frustum.planes()[i].d;
  }
  p.fx = k.fx;
  p.fy = k.fy;
  p.cx = k.cx;
  p.cy = k.cy;
  return p;
}

// The cull kernel must agree bit-for-bit across levels AND semantically
// with the geometry primitives it replaces (Unproject + Contains).
TEST(KernelEquivalence, CullClassifyRowMatchesGeometryAtEveryLevel) {
  util::Rng rng(7006);
  for (int rep = 0; rep < 40; ++rep) {
    geom::CameraIntrinsics intr;
    intr.fx = rng.Uniform(50.0, 300.0);
    intr.fy = rng.Uniform(50.0, 300.0);
    intr.cx = rng.Uniform(20.0, 100.0);
    intr.cy = rng.Uniform(20.0, 100.0);
    const geom::Pose pose = geom::Pose::FromEuler(
        {rng.Uniform(-2.0, 2.0), rng.Uniform(-1.0, 1.0),
         rng.Uniform(-2.0, 2.0)},
        geom::EulerAngles{rng.Uniform(-3.0, 3.0), rng.Uniform(-0.5, 0.5),
                          0.0});
    const geom::Frustum frustum(pose, geom::FrustumParams{});
    const kernels::FrustumKernelParams params = ParamsFrom(intr, frustum);

    const int width = 1 + static_cast<int>(rng.NextBelow(130));
    std::vector<std::uint16_t> depth(static_cast<std::size_t>(width));
    for (auto& d : depth) {
      d = rng.NextBelow(5) == 0
              ? 0
              : static_cast<std::uint16_t>(rng.NextBelow(8000));
    }
    const double v = static_cast<double>(rng.NextBelow(100)) + 0.5;

    std::vector<std::uint8_t> want(static_cast<std::size_t>(width));
    kernels::Table(SimdLevel::kScalar)
        ->cull_classify_row(depth.data(), width, v, params, want.data());

    // Semantic check against the geometry layer.
    for (int x = 0; x < width; ++x) {
      if (depth[x] == 0) {
        EXPECT_EQ(want[x], kernels::kCullInvalid);
        continue;
      }
      const geom::Vec3 local =
          intr.Unproject(x + 0.5, v, depth[x] / 1000.0);
      EXPECT_EQ(want[x] == kernels::kCullInside, frustum.Contains(local))
          << "x=" << x;
    }

    for (SimdLevel level : SimdLevels()) {
      std::vector<std::uint8_t> got(static_cast<std::size_t>(width));
      kernels::Table(level)->cull_classify_row(depth.data(), width, v, params,
                                               got.data());
      EXPECT_EQ(got, want) << kernels::ToString(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Codec-level equivalence: whole encoded bitstreams and reconstructions are
// identical no matter which dispatch level produced them.

std::vector<image::Plane16> RandomPlanes(util::Rng& rng, int planes, int w,
                                         int h, int max_value) {
  std::vector<image::Plane16> out;
  for (int p = 0; p < planes; ++p) {
    image::Plane16 plane(w, h);
    for (auto& v : plane.data()) {
      v = static_cast<std::uint16_t>(
          rng.NextBelow(static_cast<std::uint64_t>(max_value) + 1));
    }
    out.push_back(std::move(plane));
  }
  return out;
}

TEST(KernelEquivalence, EncodedBitstreamIdenticalAcrossLevels) {
  DispatchGuard guard;
  util::Rng rng(7007);
  video::CodecConfig config;
  config.width = 48;
  config.height = 32;
  config.kind = video::PlaneKind::kDepth16;
  config.slice_height = 16;

  const auto key_planes = RandomPlanes(rng, 1, 48, 32, 65535);
  const auto p_planes = RandomPlanes(rng, 1, 48, 32, 65535);

  std::vector<std::uint8_t> want_key, want_p;
  std::vector<image::Plane16> want_recon;
  bool first = true;
  for (SimdLevel level : SimdLevels()) {
    kernels::ForceLevel(level);
    video::VideoEncoder encoder(config, 1);
    auto key = encoder.EncodeAtQp(key_planes, 30);
    auto p = encoder.EncodeAtQp(p_planes, 30);
    const auto key_bytes = video::SerializeFrame(key.frame);
    const auto p_bytes = video::SerializeFrame(p.frame);

    video::VideoDecoder decoder(config, 1);
    decoder.Decode(key.frame);
    auto decoded = decoder.Decode(p.frame);
    EXPECT_EQ(decoded, p.reconstruction)
        << "decoder/encoder mismatch at " << kernels::ToString(level);

    if (first) {
      want_key = key_bytes;
      want_p = p_bytes;
      want_recon = p.reconstruction;
      first = false;
    } else {
      EXPECT_EQ(key_bytes, want_key) << kernels::ToString(level);
      EXPECT_EQ(p_bytes, want_p) << kernels::ToString(level);
      EXPECT_EQ(p.reconstruction, want_recon) << kernels::ToString(level);
    }
  }
}

// ---------------------------------------------------------------------------
// Buffer pool

TEST(BufferPool, AcquireReleaseReusesStorage) {
  auto& pool = kernels::BufferPool::Global();
  pool.Clear();
  auto buf = pool.Acquire(1024);
  EXPECT_EQ(buf.size(), 1024u);
  const std::uint16_t* data = buf.data();
  pool.Release(std::move(buf));
  EXPECT_EQ(pool.BytesPooled(), 1024u * sizeof(std::uint16_t));
  auto again = pool.Acquire(1024);
  EXPECT_EQ(again.data(), data);  // same storage came back
  EXPECT_EQ(pool.BytesPooled(), 0u);
  pool.Release(std::move(again));
  pool.Clear();
  EXPECT_EQ(pool.BytesPooled(), 0u);
}

TEST(BufferPool, CountsHitsAndMisses) {
  auto& pool = kernels::BufferPool::Global();
  pool.Clear();
  auto& hits = obs::Registry::Get().GetCounter("kernels.pool_hits");
  auto& misses = obs::Registry::Get().GetCounter("kernels.pool_misses");
  const auto hits0 = hits.value();
  const auto misses0 = misses.value();
  auto a = pool.Acquire(512);             // miss
  pool.Release(std::move(a));
  auto b = pool.Acquire(512);             // hit
  auto c = pool.Acquire(512);             // miss (pool empty again)
  EXPECT_EQ(hits.value() - hits0, 1u);
  EXPECT_EQ(misses.value() - misses0, 2u);
  pool.Release(std::move(b));
  pool.Release(std::move(c));
  pool.Clear();
}

TEST(BufferPool, GaugeTracksParkedBytes) {
  auto& pool = kernels::BufferPool::Global();
  pool.Clear();
  auto& gauge = obs::Registry::Get().GetGauge("kernels.bytes_pooled");
  pool.Release(std::vector<std::uint16_t>(100));
  pool.Release(std::vector<std::uint16_t>(50));
  EXPECT_EQ(pool.BytesPooled(), 300u);
  EXPECT_EQ(gauge.value(), 300.0);
  pool.Clear();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(BufferPool, PooledPlaneHelpersRoundTrip) {
  auto& pool = kernels::BufferPool::Global();
  pool.Clear();
  image::Plane16 plane = image::AcquirePooledPlane(16, 8);
  EXPECT_EQ(plane.width(), 16);
  EXPECT_EQ(plane.height(), 8);
  plane.Fill(7);
  image::ReleasePooledPlane(plane);
  EXPECT_TRUE(plane.empty());
  EXPECT_EQ(pool.BytesPooled(), 16u * 8u * sizeof(std::uint16_t));
  pool.Clear();
}

// The acceptance criterion: after warm-up, the steady-state encode path
// performs zero frame-sized allocations — every frame-sized buffer is a
// pool hit, observed through the miss counter.
TEST(BufferPool, SteadyStateEncodeLoopHasZeroPoolMisses) {
  auto& pool = kernels::BufferPool::Global();
  pool.Clear();
  util::Rng rng(7008);
  video::CodecConfig config;
  config.width = 48;
  config.height = 32;
  config.kind = video::PlaneKind::kDepth16;
  config.slice_height = 16;
  config.gop_length = 8;
  config.rate_mode = video::RateControlMode::kPrecise;

  video::VideoEncoder encoder(config, 1);
  video::VideoDecoder decoder(config, 1);
  auto& misses = obs::Registry::Get().GetCounter("kernels.pool_misses");

  const auto run_frames = [&](int count) {
    for (int f = 0; f < count; ++f) {
      auto planes = RandomPlanes(rng, 1, 48, 32, 4000);
      auto result = encoder.EncodeToTarget(planes, 900);
      auto decoded = decoder.Decode(result.frame);
      EXPECT_EQ(decoded, result.reconstruction);
      image::ReleasePooledPlanes(decoded);
      video::ReleaseReconstruction(result);
    }
  };

  run_frames(12);  // warm-up: covers keyframes, P-frames, rate-control trials
  const auto misses_before = misses.value();
  run_frames(12);
  EXPECT_EQ(misses.value() - misses_before, 0u)
      << "steady-state encode loop allocated frame-sized buffers";
  pool.Clear();
}

}  // namespace
}  // namespace livo
