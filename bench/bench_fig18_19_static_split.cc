// Figs 18 & 19: PSSIM geometry/color of static splits vs LiVo's dynamic
// split, office1, target bitrates 60-120 Mbps (paper scale).
// Paper: dynamic splitting stays within 0.5 PSSIM (geometry) and 3 PSSIM
// (color) of the best static split at every bitrate -- i.e. it finds the
// near-optimal split online without offline profiling.
#include "bench_util.h"
#include "core/split.h"
#include "core/types.h"
#include "image/depth_encoding.h"
#include "metrics/image_metrics.h"
#include "metrics/pointssim.h"
#include "pointcloud/pointcloud.h"
#include "sim/dataset.h"
#include "video/color_convert.h"
#include "video/video_codec.h"

namespace {

using namespace livo;

struct QualityPoint {
  double geometry = 0.0;
  double color = 0.0;
};

// Encodes the sequence with a given split policy (`fixed_split`, or the
// dynamic line search if it is <= 0) at `target_bps`, reconstructs clouds,
// returns mean PSSIM.
QualityPoint RunSplit(const sim::CapturedSequence& seq,
                      const core::LiVoConfig& config, double fixed_split,
                      double target_bps) {
  video::VideoEncoder color_encoder(config.ColorCodecConfig(), 3);
  video::VideoEncoder depth_encoder(config.DepthCodecConfig(), 1);
  core::SplitController controller(config.split);
  const double frame_budget = target_bps / 8.0 / config.fps;

  metrics::PointSsimConfig pssim_config;
  pssim_config.max_anchors = 900;

  QualityPoint out;
  int samples = 0;
  for (std::size_t f = 0; f < seq.frames.size(); ++f) {
    const auto tiled = image::Tile(config.layout, seq.frames[f],
                                   static_cast<std::uint32_t>(f));
    const auto color_planes = video::RgbToYcbcr(tiled.color);
    const auto scaled = image::ScaleDepth(tiled.depth, core::kDepthScaler);
    const double s = fixed_split > 0.0 ? fixed_split : controller.split();

    const auto cr = color_encoder.EncodeToTarget(
        color_planes, static_cast<std::size_t>(frame_budget * (1.0 - s)));
    const auto dr = depth_encoder.EncodeToTarget(
        {scaled}, static_cast<std::size_t>(frame_budget * s));

    const image::ColorImage decoded_color =
        video::YcbcrToRgb(cr.reconstruction);
    if (fixed_split <= 0.0 && controller.ShouldProbe(static_cast<long>(f))) {
      controller.Update(metrics::PlaneRmse(scaled, dr.reconstruction[0]),
                        metrics::ColorRmse(tiled.color, decoded_color));
    }

    // Reconstruct and compare clouds every other frame (metric cost).
    if (f % 2 != 0) continue;
    const auto decoded_mm =
        image::UnscaleDepth(dr.reconstruction[0], core::kDepthScaler);
    const auto views = image::Untile(config.layout, decoded_color, decoded_mm);
    const auto decoded_cloud = pointcloud::VoxelDownsample(
        pointcloud::ReconstructFromViews(views, seq.rig), 0.025);
    const auto reference_cloud = pointcloud::VoxelDownsample(
        pointcloud::ReconstructFromViews(seq.frames[f], seq.rig), 0.025);
    const auto pssim =
        metrics::PointSsim(reference_cloud, decoded_cloud, pssim_config);
    out.geometry += pssim.geometry;
    out.color += pssim.color;
    ++samples;
  }
  out.geometry /= samples;
  out.color /= samples;
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader("Figs 18/19",
                     "Static vs dynamic bandwidth split (office1)");

  const sim::ScaleProfile profile = sim::ScaleProfile::Default();
  const auto seq = sim::CaptureVideo("office1", profile, 10);
  core::LiVoConfig config;
  // s_i "can be estimated empirically from video data (e.g., Fig 4)"
  // (§3.3); the paper's long sessions converge from any start, but this
  // short sweep uses the profiled initial value so the dynamic column
  // reflects the controller's steady state rather than its ramp.
  config.split.initial = 0.85;
  config.split.update_every = 1;

  std::printf("%-12s", "Target Mbps");
  for (double s : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    std::printf("s=%.1f          ", s);
  }
  std::printf("%s\n", "dynamic");

  for (double paper_mbps : {60.0, 80.0, 100.0, 120.0}) {
    const double target_bps = paper_mbps * 1e6 * profile.bandwidth_scale;
    std::printf("%-12.0f", paper_mbps);
    QualityPoint dynamic{};
    for (double s : {0.5, 0.6, 0.7, 0.8, 0.9, -1.0}) {
      const QualityPoint q = RunSplit(seq, config, s, target_bps);
      if (s < 0.0) {
        dynamic = q;
      } else {
        std::printf("%5.1f/%-8.1f", q.geometry, q.color);
      }
    }
    std::printf("%5.1f/%-8.1f (geometry/color)\n", dynamic.geometry,
                dynamic.color);
  }
  std::printf(
      "\nExpected shape: geometry PSSIM improves toward s=0.9; color peaks\n"
      "at lower s; the dynamic column tracks the best static column within\n"
      "~0.5 (geometry) / ~3 (color) PSSIM points at every bitrate.\n");
  return 0;
}
