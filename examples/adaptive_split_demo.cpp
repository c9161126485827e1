// Bandwidth-split adaptation demo (§3.3).
//
// Shows the split controller reacting to scene-complexity change: the
// session starts on the sparse "dance5" scene and switches mid-stream to
// the cluttered "pizza1" scene. The depth/color RMSE balance shifts, and
// the line search walks the split to a new operating point.
//
// Build & run:  ./build/examples/adaptive_split_demo
#include <cstdio>

#include "core/split.h"
#include "core/types.h"
#include "image/depth_encoding.h"
#include "metrics/image_metrics.h"
#include "sim/dataset.h"
#include "video/color_convert.h"
#include "video/video_codec.h"

int main() {
  using namespace livo;
  const sim::ScaleProfile profile = sim::ScaleProfile::Default();
  constexpr int kFramesPerScene = 30;

  std::printf("rendering dance5 (simple) and pizza1 (complex)...\n");
  const auto simple = sim::CaptureVideo("dance5", profile, kFramesPerScene);
  const auto complex_scene =
      sim::CaptureVideo("pizza1", profile, kFramesPerScene);

  core::LiVoConfig config;
  config.layout = image::TileLayout(profile.camera_count, profile.camera_width,
                                    profile.camera_height);
  config.split.update_every = 1;  // adapt every frame for a crisp demo

  video::VideoEncoder color_encoder(config.ColorCodecConfig(), 3);
  video::VideoEncoder depth_encoder(config.DepthCodecConfig(), 1);
  core::SplitController splitter(config.split);

  const double target_bps = 70.0e6 * profile.bandwidth_scale;
  const double frame_budget = target_bps / 8.0 / profile.fps;

  std::printf("\nframe  scene    split  rmse_depth  rmse_color\n");
  for (int f = 0; f < 2 * kFramesPerScene; ++f) {
    const auto& seq = f < kFramesPerScene ? simple : complex_scene;
    const auto& views = seq.frames[static_cast<std::size_t>(f % kFramesPerScene)];
    const auto tiled =
        image::Tile(config.layout, views, static_cast<std::uint32_t>(f));
    const auto color_planes = video::RgbToYcbcr(tiled.color);
    const auto scaled = image::ScaleDepth(tiled.depth, core::kDepthScaler);

    const double s = splitter.split();
    const auto color = color_encoder.EncodeToTarget(
        color_planes, static_cast<std::size_t>(frame_budget * (1.0 - s)));
    const auto depth = depth_encoder.EncodeToTarget(
        {scaled}, static_cast<std::size_t>(frame_budget * s));

    const double rmse_d = metrics::PlaneRmse(scaled, depth.reconstruction[0]);
    const double rmse_c = metrics::ColorRmse(
        tiled.color, video::YcbcrToRgb(color.reconstruction));
    splitter.Update(rmse_d, rmse_c);

    if (f % 3 == 0) {
      std::printf("%5d  %-7s  %.3f  %10.1f  %10.2f\n", f,
                  f < kFramesPerScene ? "dance5" : "pizza1", s, rmse_d, rmse_c);
    }
  }
  std::printf(
      "\nThe split drifts as the scene changes: cluttered scenes put more\n"
      "energy into depth discontinuities, pushing the controller to\n"
      "rebalance -- the effect a static offline split cannot track (§3.3).\n");
  return 0;
}
