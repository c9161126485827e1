// Microbenchmarks (google-benchmark) for the performance-critical
// primitives behind the paper's 30 fps requirement: the 8x8 DCT, plane
// encoding, RGB-D view culling, point-cloud reconstruction, octree coding,
// and PointSSIM. Two families go further:
//  * BM_ColorCodecEncode / BM_ColorCodecDecode: slice-parallel codec
//    throughput on the full tiled color canvas at 1, 2 and
//    hardware_concurrency threads;
//  * BM_Kernel/<kernel>/<level>: every livo::kernels entry on the scalar
//    table and on the best level this CPU offers.
// The other cases run on the active kernel table, so LIVO_SIMD=scalar
// compares levels for them.
#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "core/culling.h"
#include "core/types.h"
#include "geom/frustum.h"
#include "kernels/kernels.h"
#include "image/depth_encoding.h"
#include "image/tiling.h"
#include "metrics/pointssim.h"
#include "pccodec/octree_codec.h"
#include "pointcloud/pointcloud.h"
#include "sim/dataset.h"
#include "util/rng.h"
#include "video/color_convert.h"
#include "video/dct.h"
#include "video/plane_codec.h"
#include "video/video_codec.h"

namespace {

using namespace livo;

const sim::CapturedSequence& Sequence() {
  static const sim::CapturedSequence seq =
      sim::CaptureVideo("band2", sim::ScaleProfile::Default(), 2);
  return seq;
}

void BM_ForwardDct(benchmark::State& state) {
  util::Rng rng(1);
  video::Block spatial, freq;
  for (auto& v : spatial) v = rng.Uniform(0, 255);
  for (auto _ : state) {
    video::ForwardDct(spatial, freq);
    benchmark::DoNotOptimize(freq);
  }
}
BENCHMARK(BM_ForwardDct);

void BM_EncodeTiledColorPlane(benchmark::State& state) {
  const auto& seq = Sequence();
  core::LiVoConfig config;
  const auto tiled = image::Tile(config.layout, seq.frames[0], 0);
  const auto planes = video::RgbToYcbcr(tiled.color);
  const video::CodecConfig codec = config.ColorCodecConfig();
  const int qp = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto out = video::EncodePlane(codec, planes[0], nullptr, qp);
    benchmark::DoNotOptimize(out.bits);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(planes[0].size()));
}
BENCHMARK(BM_EncodeTiledColorPlane)->Arg(10)->Arg(24)->Arg(40);

void BM_CullViews(benchmark::State& state) {
  const auto& seq = Sequence();
  const geom::Frustum frustum(
      geom::Pose::LookAt({2.0, 1.5, 2.0}, {0, 0.9, 0}), geom::FrustumParams{});
  for (auto _ : state) {
    auto views = seq.frames[0];
    auto stats = core::CullViews(views, seq.rig, frustum);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_CullViews);

void BM_ReconstructCloud(benchmark::State& state) {
  const auto& seq = Sequence();
  for (auto _ : state) {
    auto cloud = pointcloud::ReconstructFromViews(seq.frames[0], seq.rig);
    benchmark::DoNotOptimize(cloud);
  }
}
BENCHMARK(BM_ReconstructCloud);

void BM_VoxelDownsample(benchmark::State& state) {
  const auto cloud =
      pointcloud::ReconstructFromViews(Sequence().frames[0], Sequence().rig);
  for (auto _ : state) {
    auto v = pointcloud::VoxelDownsample(cloud, 0.025);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_VoxelDownsample);

void BM_OctreeEncode(benchmark::State& state) {
  const auto cloud =
      pointcloud::ReconstructFromViews(Sequence().frames[0], Sequence().rig);
  pccodec::PcCodecConfig config;
  config.quantization_bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto encoded = pccodec::EncodeCloud(cloud, config);
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["points"] = static_cast<double>(cloud.size());
}
BENCHMARK(BM_OctreeEncode)->Arg(8)->Arg(11);

void BM_PointSsim(benchmark::State& state) {
  const auto cloud = pointcloud::VoxelDownsample(
      pointcloud::ReconstructFromViews(Sequence().frames[0], Sequence().rig),
      0.025);
  const auto distorted = pointcloud::VoxelDownsample(
      pointcloud::ReconstructFromViews(Sequence().frames[1], Sequence().rig),
      0.025);
  metrics::PointSsimConfig config;
  config.max_anchors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = metrics::PointSsim(cloud, distorted, config);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PointSsim)->Arg(500)->Arg(2000);

void BM_DepthScale(benchmark::State& state) {
  const auto& seq = Sequence();
  core::LiVoConfig config;
  const auto tiled = image::Tile(config.layout, seq.frames[0], 0);
  const image::DepthScaler scaler;
  for (auto _ : state) {
    auto scaled = image::ScaleDepth(tiled.depth, scaler);
    benchmark::DoNotOptimize(scaled);
  }
}
BENCHMARK(BM_DepthScale);

// ---- Slice-parallel codec throughput ----

constexpr int kCodecQp = 24;

// Two consecutive tiled color frames of the default canvas, as YCbCr.
const std::array<std::vector<image::Plane16>, 2>& CodecFrames() {
  static const std::array<std::vector<image::Plane16>, 2> frames = [] {
    const auto& seq = Sequence();
    const core::LiVoConfig config;
    return std::array<std::vector<image::Plane16>, 2>{
        video::RgbToYcbcr(image::Tile(config.layout, seq.frames[0], 0).color),
        video::RgbToYcbcr(image::Tile(config.layout, seq.frames[1], 1).color)};
  }();
  return frames;
}

// The color codec fanned out over state.range(0) threads.
video::CodecConfig CodecAtThreads(const benchmark::State& state) {
  video::CodecConfig codec = core::LiVoConfig{}.ColorCodecConfig();
  codec.max_threads = static_cast<int>(state.range(0));
  return codec;
}

// Items are canvas pixels: two frames per iteration.
void CountCanvasPixels(benchmark::State& state,
                       const video::CodecConfig& codec) {
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(codec.width) *
                          codec.height);
}

// One key frame and one P-frame through all three YCbCr planes per
// iteration, so the intra, inter and motion paths all contribute.
void BM_ColorCodecEncode(benchmark::State& state) {
  const auto& frames = CodecFrames();
  const video::CodecConfig codec = CodecAtThreads(state);
  video::VideoEncoder encoder(codec, 3);
  for (auto _ : state) {
    encoder.RequestKeyframe();
    benchmark::DoNotOptimize(encoder.EncodeAtQp(frames[0], kCodecQp));
    benchmark::DoNotOptimize(encoder.EncodeAtQp(frames[1], kCodecQp));
  }
  CountCanvasPixels(state, codec);
}

void BM_ColorCodecDecode(benchmark::State& state) {
  const auto& frames = CodecFrames();
  const video::CodecConfig codec = CodecAtThreads(state);
  std::array<video::EncodedFrame, 2> encoded;
  {
    video::VideoEncoder encoder(codec, 3);
    encoded[0] = encoder.EncodeAtQp(frames[0], kCodecQp).frame;
    encoded[1] = encoder.EncodeAtQp(frames[1], kCodecQp).frame;
  }
  video::VideoDecoder decoder(codec, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.Decode(encoded[0]));
    benchmark::DoNotOptimize(decoder.Decode(encoded[1]));
  }
  CountCanvasPixels(state, codec);
}

void CodecThreadCounts(benchmark::internal::Benchmark* b) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  b->Arg(1)->Arg(2);
  if (hw > 2) b->Arg(hw);
}
// Wall time: the slices run on pool workers, not the timing thread.
BENCHMARK(BM_ColorCodecEncode)->Apply(CodecThreadCounts)->UseRealTime();
BENCHMARK(BM_ColorCodecDecode)->Apply(CodecThreadCounts)->UseRealTime();

// ---- Per-kernel SIMD dispatch throughput ----

// Working set: enough blocks/pixels that per-call overhead is invisible
// but the set still fits in cache (we measure compute, not memory).
constexpr int kBlocks = 2048;
constexpr std::size_t kPixels =
    static_cast<std::size_t>(kBlocks) * kernels::kDctPixels;
// The 2x scalers and ssd_block_u16 see the working set as a
// kScaleWidth-wide plane.
constexpr int kScaleWidth = 256;
constexpr int kScaleHeight = static_cast<int>(kPixels) / kScaleWidth;

struct KernelInputs {
  KernelInputs();
  std::vector<double> dct_in, dct_out;
  std::vector<std::int32_t> ia, ib, levels;
  std::vector<std::uint8_t> r8, g8, b8, r8o, g8o, b8o, mask;
  std::vector<std::uint16_t> y16, cb16, cr16, d16, d16o;
  kernels::FrustumKernelParams fparams;
};

KernelInputs::KernelInputs()
    : dct_in(kPixels), dct_out(kPixels), ia(kPixels), ib(kPixels),
      levels(kPixels), r8(kPixels), g8(kPixels), b8(kPixels), r8o(kPixels),
      g8o(kPixels), b8o(kPixels), mask(kPixels), y16(kPixels),
      cb16(kPixels), cr16(kPixels), d16(kPixels), d16o(kPixels) {
  util::Rng rng(99);
  for (auto& v : dct_in) v = rng.Uniform(-255.0, 255.0);
  for (auto& v : ia) v = rng.UniformInt(-32768, 32767);
  for (auto& v : ib) v = rng.UniformInt(-32768, 32767);
  for (std::size_t i = 0; i < kPixels; ++i) {
    r8[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
    g8[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
    b8[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
    y16[i] = static_cast<std::uint16_t>(rng.NextBelow(256));
    cb16[i] = static_cast<std::uint16_t>(rng.NextBelow(256));
    cr16[i] = static_cast<std::uint16_t>(rng.NextBelow(256));
    d16[i] = static_cast<std::uint16_t>(rng.NextBelow(8000));
  }
  const geom::Frustum frustum(
      geom::Pose::LookAt({2.0, 1.5, 2.0}, {0, 0.9, 0}), geom::FrustumParams{});
  for (int i = 0; i < 6; ++i) {
    fparams.nx[i] = frustum.planes()[i].normal.x;
    fparams.ny[i] = frustum.planes()[i].normal.y;
    fparams.nz[i] = frustum.planes()[i].normal.z;
    fparams.d[i] = frustum.planes()[i].d;
  }
  fparams.fx = fparams.fy = 70.0;
  fparams.cx = fparams.cy = 40.0;
}

KernelInputs& Inputs() {
  static KernelInputs inputs;
  return inputs;
}

using kernels::KernelTable;

// One pass of a kernel over the whole working set.
struct KernelCase {
  const char* name;
  void (*run)(const KernelTable& t, KernelInputs& in);
};

const KernelCase kKernelCases[] = {
    {"forward_dct",
     [](const KernelTable& t, KernelInputs& in) {
       for (int b = 0; b < kBlocks; ++b)
         t.forward_dct(&in.dct_in[b * 64], &in.dct_out[b * 64]);
     }},
    {"inverse_dct",
     [](const KernelTable& t, KernelInputs& in) {
       for (int b = 0; b < kBlocks; ++b)
         t.inverse_dct(&in.dct_in[b * 64], &in.dct_out[b * 64]);
     }},
    {"sad_block",
     [](const KernelTable& t, KernelInputs& in) {
       long long s = 0;
       for (int b = 0; b < kBlocks; ++b)
         s += t.sad_block(&in.ia[b * 64], &in.ib[b * 64]);
       benchmark::DoNotOptimize(s);
     }},
    {"ssd_block_u16",
     [](const KernelTable& t, KernelInputs& in) {
       std::uint64_t s = 0;
       for (int y = 0; y < kScaleHeight; y += 8)
         for (int x = 0; x < kScaleWidth; x += 8)
           s += t.ssd_block_u16(&in.y16[y * kScaleWidth + x], kScaleWidth,
                                &in.d16[y * kScaleWidth + x], kScaleWidth);
       benchmark::DoNotOptimize(s);
     }},
    {"quantize_residual",
     [](const KernelTable& t, KernelInputs& in) {
       bool any = false;
       for (int b = 0; b < kBlocks; ++b)
         any |= t.quantize_residual(&in.ia[b * 64], 10.08,
                                    &in.levels[b * 64]);
       benchmark::DoNotOptimize(any);
     }},
    {"reconstruct_residual",
     [](const KernelTable& t, KernelInputs& in) {
       for (int b = 0; b < kBlocks; ++b)
         t.reconstruct_residual(&in.levels[b * 64], 10.08, &in.ia[b * 64]);
     }},
    {"rgb_to_ycbcr",
     [](const KernelTable& t, KernelInputs& in) {
       t.rgb_to_ycbcr(in.r8.data(), in.g8.data(), in.b8.data(), in.y16.data(),
                      in.cb16.data(), in.cr16.data(), kPixels);
     }},
    {"ycbcr_to_rgb",
     [](const KernelTable& t, KernelInputs& in) {
       t.ycbcr_to_rgb(in.y16.data(), in.cb16.data(), in.cr16.data(),
                      in.r8o.data(), in.g8o.data(), in.b8o.data(), kPixels);
     }},
    {"scale_depth",
     [](const KernelTable& t, KernelInputs& in) {
       t.scale_depth(in.d16.data(), in.d16o.data(), kPixels, 6000);
     }},
    {"unscale_depth",
     [](const KernelTable& t, KernelInputs& in) {
       t.unscale_depth(in.d16.data(), in.d16o.data(), kPixels, 6000);
     }},
    {"sum_sq_diff_u16",
     [](const KernelTable& t, KernelInputs& in) {
       benchmark::DoNotOptimize(
           t.sum_sq_diff_u16(in.d16.data(), in.d16o.data(), kPixels));
     }},
    {"sum_sq_diff_u8",
     [](const KernelTable& t, KernelInputs& in) {
       benchmark::DoNotOptimize(
           t.sum_sq_diff_u8(in.r8.data(), in.g8.data(), kPixels));
     }},
    {"cull_classify_row",
     [](const KernelTable& t, KernelInputs& in) {
       t.cull_classify_row(in.d16.data(), static_cast<int>(kPixels), 36.5,
                           in.fparams, in.mask.data());
     }},
    {"downscale2x_avg_u16",
     [](const KernelTable& t, KernelInputs& in) {
       t.downscale2x_avg_u16(in.d16.data(), kScaleWidth, kScaleHeight,
                             in.d16o.data(), kScaleWidth / 2,
                             kScaleHeight / 2);
     }},
    {"downscale2x_pick_u16",
     [](const KernelTable& t, KernelInputs& in) {
       t.downscale2x_pick_u16(in.d16.data(), kScaleWidth, kScaleHeight,
                              in.d16o.data(), kScaleWidth / 2,
                              kScaleHeight / 2);
     }},
    {"upscale2x_u16",
     [](const KernelTable& t, KernelInputs& in) {
       t.upscale2x_u16(in.d16.data(), kScaleWidth / 2, kScaleHeight / 2,
                       in.d16o.data(), kScaleWidth, kScaleHeight);
     }},
};

// BM_Kernel/<kernel>/<level> for the scalar table and the best level
// available; items are working-set elements. ClobberMemory keeps the
// kernels' buffer writes observable.
void RegisterKernelBenchmarks() {
  std::vector<kernels::SimdLevel> levels{kernels::SimdLevel::kScalar};
  const kernels::SimdLevel best = kernels::AvailableLevels().back();
  if (best != kernels::SimdLevel::kScalar) levels.push_back(best);
  for (const KernelCase& c : kKernelCases) {
    for (const kernels::SimdLevel level : levels) {
      const KernelTable& table = *kernels::Table(level);
      const std::string name =
          std::string("BM_Kernel/") + c.name + "/" + table.name;
      benchmark::RegisterBenchmark(
          name.c_str(), [&c, &table](benchmark::State& state) {
            KernelInputs& in = Inputs();
            for (auto _ : state) {
              c.run(table, in);
              benchmark::ClobberMemory();
            }
            state.SetItemsProcessed(state.iterations() *
                                    static_cast<std::int64_t>(kPixels));
          });
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterKernelBenchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
