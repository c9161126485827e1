// Rate-distortion explorer for the 2D codec substrate.
//
// Sweeps QP over the tiled color and depth canvases of one band2 frame and
// prints the rate/quality curve of both plane types, plus the I-frame vs
// P-frame compression gain that makes 2D codecs far more bandwidth-
// efficient than per-frame 3D compression (§1's core argument).
//
// Build & run:  ./build/examples/codec_explorer
#include <cstdio>

#include "core/types.h"
#include "image/depth_encoding.h"
#include "metrics/image_metrics.h"
#include "sim/dataset.h"
#include "video/color_convert.h"
#include "video/video_codec.h"

int main() {
  using namespace livo;
  const sim::ScaleProfile profile = sim::ScaleProfile::Default();
  const auto seq = sim::CaptureVideo("band2", profile, 2);

  core::LiVoConfig config;
  config.layout = image::TileLayout(profile.camera_count, profile.camera_width,
                                    profile.camera_height);
  const auto tiled0 = image::Tile(config.layout, seq.frames[0], 0);
  const auto tiled1 = image::Tile(config.layout, seq.frames[1], 1);
  const auto color0 = video::RgbToYcbcr(tiled0.color);
  const auto color1 = video::RgbToYcbcr(tiled1.color);
  const auto depth0 = image::ScaleDepth(tiled0.depth, core::kDepthScaler);
  const auto depth1 = image::ScaleDepth(tiled1.depth, core::kDepthScaler);

  std::printf("COLOR canvas %dx%d (I-frame)\n", config.layout.canvas_width(),
              config.layout.canvas_height());
  std::printf("qp   KB      RMSE    PSNR(dB)\n");
  for (int qp : {6, 12, 18, 24, 30, 36, 42}) {
    video::VideoEncoder enc(config.ColorCodecConfig(), 3);
    const auto r = enc.EncodeAtQp(color0, qp);
    const double rmse = metrics::ColorRmse(
        tiled0.color, video::YcbcrToRgb(r.reconstruction));
    std::printf("%-4d %-7.1f %-7.2f %-7.1f\n", qp,
                r.frame.SizeBytes() / 1024.0, rmse, metrics::Psnr(rmse, 255));
  }

  std::printf("\nDEPTH canvas, 16-bit Y mode (I-frame)\n");
  std::printf("qp   KB      RMSE(mm-equivalent)\n");
  for (int qp : {18, 30, 42, 54, 66}) {
    video::VideoEncoder enc(config.DepthCodecConfig(), 1);
    const auto r = enc.EncodeAtQp({depth0}, qp);
    const auto decoded_mm =
        image::UnscaleDepth(r.reconstruction[0], core::kDepthScaler);
    // Compare over the camera tiles only (the marker strip is not depth).
    std::printf("%-4d %-7.1f %-7.1f\n", qp, r.frame.SizeBytes() / 1024.0,
                metrics::DepthRmseMm(
                    image::TileBody(config.layout, tiled0.depth),
                    image::TileBody(config.layout, decoded_mm)));
  }

  std::printf("\nInter-frame gain (qp 18): consecutive frames\n");
  {
    video::VideoEncoder enc(config.ColorCodecConfig(), 3);
    const auto i_frame = enc.EncodeAtQp(color0, 18);
    const auto p_frame = enc.EncodeAtQp(color1, 18);
    std::printf("color I-frame: %6.1f KB   P-frame: %6.1f KB  (%.1fx gain)\n",
                i_frame.frame.SizeBytes() / 1024.0,
                p_frame.frame.SizeBytes() / 1024.0,
                double(i_frame.frame.SizeBytes()) / p_frame.frame.SizeBytes());
  }
  {
    video::VideoEncoder enc(config.DepthCodecConfig(), 1);
    const auto i_frame = enc.EncodeAtQp({depth0}, 42);
    const auto p_frame = enc.EncodeAtQp({depth1}, 42);
    std::printf("depth I-frame: %6.1f KB   P-frame: %6.1f KB  (%.1fx gain)\n",
                i_frame.frame.SizeBytes() / 1024.0,
                p_frame.frame.SizeBytes() / 1024.0,
                double(i_frame.frame.SizeBytes()) / p_frame.frame.SizeBytes());
  }
  std::printf(
      "\nThe temporal gain is what 3D point-cloud codecs like Draco lack:\n"
      "every Draco frame pays I-frame cost, which is why LiVo's 2D pipeline\n"
      "is several times more bandwidth-efficient on video content (§1).\n");
  return 0;
}
