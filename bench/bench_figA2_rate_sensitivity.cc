// Fig A.2: depth vs color rate sensitivity. Fixing one stream's bitrate
// and sweeping the other's, PSSIM geometry rises steeply with depth
// bitrate before flattening, while color PSSIM barely moves with color
// bitrate; depth needs roughly 7x more bitrate-per-point to saturate.
#include "bench_util.h"
#include "core/types.h"
#include "image/depth_encoding.h"
#include "metrics/pointssim.h"
#include "pointcloud/pointcloud.h"
#include "sim/dataset.h"
#include "video/color_convert.h"
#include "video/video_codec.h"

namespace {

using namespace livo;

double CloudPoints(const sim::CapturedSequence& seq) {
  return static_cast<double>(
      pointcloud::ReconstructFromViews(seq.frames[0], seq.rig).size());
}

}  // namespace

int main() {
  bench::PrintHeader("Fig A.2", "PSSIM vs per-stream bitrate (band2)");

  const sim::ScaleProfile profile = sim::ScaleProfile::Default();
  const auto seq = sim::CaptureVideo("band2", profile, 4);
  core::LiVoConfig config;
  const double points = CloudPoints(seq);
  metrics::PointSsimConfig pssim_config;
  pssim_config.max_anchors = 900;

  const auto reference = pointcloud::VoxelDownsample(
      pointcloud::ReconstructFromViews(seq.frames[0], seq.rig), 0.025);

  const auto evaluate = [&](std::size_t color_budget,
                            std::size_t depth_budget) {
    video::VideoEncoder ce(config.ColorCodecConfig(), 3);
    video::VideoEncoder de(config.DepthCodecConfig(), 1);
    metrics::PointSsimResult last{};
    for (std::size_t f = 0; f < seq.frames.size(); ++f) {
      const auto tiled = image::Tile(config.layout, seq.frames[f],
                                     static_cast<std::uint32_t>(f));
      const auto cr =
          ce.EncodeToTarget(video::RgbToYcbcr(tiled.color), color_budget);
      const auto dr = de.EncodeToTarget(
          {image::ScaleDepth(tiled.depth, core::kDepthScaler)}, depth_budget);
      if (f + 1 < seq.frames.size()) continue;  // measure the settled frame
      const auto decoded_mm =
          image::UnscaleDepth(dr.reconstruction[0], core::kDepthScaler);
      const auto views = image::Untile(
          config.layout, video::YcbcrToRgb(cr.reconstruction), decoded_mm);
      const auto ref = pointcloud::VoxelDownsample(
          pointcloud::ReconstructFromViews(seq.frames[f], seq.rig), 0.025);
      const auto decoded = pointcloud::VoxelDownsample(
          pointcloud::ReconstructFromViews(views, seq.rig), 0.025);
      last = metrics::PointSsim(ref, decoded, pssim_config);
    }
    return last;
  };

  // (a) Sweep depth bitrate at fixed generous color bitrate.
  const auto color_fixed = static_cast<std::size_t>(12000);
  std::printf("(a) fixed color budget, sweep depth\n");
  std::printf("depth_bits/point  PSSIM_geometry\n");
  for (std::size_t depth_budget : {1200u, 2500u, 5000u, 10000u, 20000u, 40000u}) {
    const auto q = evaluate(color_fixed, depth_budget);
    std::printf("%15.2f  %7.1f\n", depth_budget * 8.0 / points, q.geometry);
  }

  // (b) Sweep color bitrate at fixed generous depth bitrate.
  const auto depth_fixed = static_cast<std::size_t>(30000);
  std::printf("\n(b) fixed depth budget, sweep color\n");
  std::printf("color_bits/point  PSSIM_color\n");
  for (std::size_t color_budget : {1200u, 2500u, 5000u, 10000u, 20000u}) {
    const auto q = evaluate(color_budget, depth_fixed);
    std::printf("%15.2f  %7.1f\n", color_budget * 8.0 / points, q.color);
  }

  std::printf(
      "\nExpected shape: geometry PSSIM climbs steeply then flattens as\n"
      "depth bitrate grows; color PSSIM varies little across its sweep --\n"
      "depth needs several times more bitrate before it saturates, which\n"
      "is exactly why the split controller favours depth (§3.3).\n");
  return 0;
}
