// Fig 17 (+ Fig A.1): depth-encoding comparison -- LiVo's scaled 16-bit
// Y-channel encoding vs unscaled Y16 vs RGB-packed depth (Pece et al. /
// RealSense colorization style), at the same depth-stream bitrate.
// Paper: scaled Y16 clearly outperforms both; unscaled Y16 shows block
// artifacts (Fig A.1); RGB packing suffers from low-byte wrap
// discontinuities under transform coding.
//
// Also includes the DESIGN.md tiling ablation: tiled composition vs
// independently encoded per-camera streams at the same total budget
// (§3.2's claim that tiling preserves compressibility).
#include "bench_util.h"
#include "core/sender.h"
#include "core/receiver.h"
#include "metrics/image_metrics.h"
#include "metrics/pointssim.h"
#include "pointcloud/pointcloud.h"
#include "sim/dataset.h"
#include "video/color_convert.h"
#include "video/plane_codec.h"
#include "video/video_codec.h"

namespace {

using namespace livo;

// Which depth representation the depth stream carries. The live pipeline
// (core::LiVoSender) always sends kScaledY16; the other two are the
// baselines this bench compares it with.
enum class DepthMode {
  kScaledY16,    // LiVo: millimetres scaled to the full 16-bit Y range
  kUnscaledY16,  // raw millimetres in the 16-bit Y channel (Fig A.1)
  kRgbPacked,    // 16-bit depth split across 8-bit color channels
};

// Round-trips the depth canvas through one encoding mode at `budget_bytes`
// per frame; returns {mean depth RMSE in mm, max abs error in mm}.
struct DepthResult {
  double rmse_mm = 0.0;
  double max_err_mm = 0.0;
  double mean_kb = 0.0;  // actual stream size (overshoots the budget when
                         // the mode cannot compress enough at QP <= 51)
};

DepthResult RoundTripDepth(const sim::CapturedSequence& seq,
                           const core::LiVoConfig& config, DepthMode mode,
                           std::size_t budget_bytes) {
  // The RGB-packed baseline feeds its packed image through the ordinary
  // 8-bit color path (Pece et al. style) as three planes; the Y16 modes
  // code one plane.
  const int planes = mode == DepthMode::kRgbPacked ? 3 : 1;
  video::CodecConfig codec_config = mode == DepthMode::kRgbPacked
                                        ? config.ColorCodecConfig()
                                        : config.DepthCodecConfig();
  // All modes face the STANDARD H.265 QP ceiling (51): the maximum
  // quantization step (~228) is fine-grained relative to the full 16-bit
  // range but coarse relative to raw millimetres -- the constraint that
  // makes depth scaling matter (S3.2). An unscaled stream that cannot
  // shrink below the budget overshoots (see the KB column).
  codec_config.qp_max = 51;
  codec_config.rate_mode = video::RateControlMode::kPrecise;
  video::VideoEncoder encoder(codec_config, planes);

  DepthResult out;
  int samples = 0;
  for (std::size_t f = 0; f < seq.frames.size(); ++f) {
    const auto tiled = image::Tile(config.layout, seq.frames[f],
                                   static_cast<std::uint32_t>(f));
    std::vector<image::Plane16> input;
    if (mode == DepthMode::kScaledY16) {
      input.push_back(image::ScaleDepth(tiled.depth, core::kDepthScaler));
    } else if (mode == DepthMode::kUnscaledY16) {
      input.push_back(tiled.depth);
    } else {
      input = image::PackedRgbToPlanes(image::PackDepthToRgb(tiled.depth));
    }
    const auto result = encoder.EncodeToTarget(input, budget_bytes);

    image::DepthImage decoded_mm;
    if (mode == DepthMode::kScaledY16) {
      decoded_mm =
          image::UnscaleDepth(result.reconstruction[0], core::kDepthScaler);
    } else if (mode == DepthMode::kUnscaledY16) {
      decoded_mm = result.reconstruction[0];
    } else {
      decoded_mm = image::UnpackDepthFromRgb(
          image::PlanesToPackedRgb(result.reconstruction));
    }

    // Metrics cover the camera tiles only; the marker strip is not depth.
    const auto body_ref = image::TileBody(config.layout, tiled.depth);
    const auto body_dec = image::TileBody(config.layout, decoded_mm);
    out.rmse_mm += metrics::DepthRmseMm(body_ref, body_dec);
    double max_err = 0.0;
    for (std::size_t i = 0; i < body_dec.data().size(); ++i) {
      if (body_ref.data()[i] == 0) continue;
      max_err = std::max(max_err, std::abs(double(body_dec.data()[i]) -
                                           double(body_ref.data()[i])));
    }
    out.max_err_mm = std::max(out.max_err_mm, max_err);
    out.mean_kb += result.frame.SizeBytes() / 1024.0;
    ++samples;
  }
  out.rmse_mm /= samples;
  out.mean_kb /= samples;
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader("Fig 17", "Depth encodings at equal depth bitrate");

  const sim::ScaleProfile profile = sim::ScaleProfile::Default();
  core::LiVoConfig config;
  // Depth-stream budget ~= 0.9 x (80 Mbps paper-scale) / fps.
  const auto budget = static_cast<std::size_t>(
      0.9 * 80.0e6 * profile.bandwidth_scale / 8.0 / profile.fps);

  std::printf("%-10s %-22s %-14s %-12s %-10s\n", "Video", "Mode",
              "DepthRMSE(mm)", "MaxErr(mm)", "KB/frame");
  std::printf("(budget %.1f KB/frame)\n", budget / 1024.0);
  for (const auto& spec : sim::AllVideos()) {
    const auto seq = sim::CaptureVideo(spec.name, profile, 6);
    for (const auto& [mode, name] :
         std::vector<std::pair<DepthMode, const char*>>{
             {DepthMode::kScaledY16, "LiVo scaled Y16"},
             {DepthMode::kUnscaledY16, "unscaled Y16"},
             {DepthMode::kRgbPacked, "RGB-packed"}}) {
      const DepthResult r = RoundTripDepth(seq, config, mode, budget);
      std::printf("%-10s %-22s %-14.1f %-12.0f %-10.1f\n", spec.name.c_str(),
                  name, r.rmse_mm, r.max_err_mm, r.mean_kb);
    }
  }
  std::printf(
      "\nExpected shape (Fig 17 + A.1): scaled Y16 has the lowest depth\n"
      "error; unscaled Y16 shows large block-artifact errors (high max\n"
      "error); RGB-packed is worst in RMSE due to low-byte wraparound.\n");

  // --- Tiling ablation (§3.2): tiled vs per-camera streams ---
  bench::PrintHeader("Ablation", "Tiled composition vs per-camera streams");
  const auto seq = sim::CaptureVideo("band2", profile, 6);
  const auto total_budget = static_cast<std::size_t>(
      80.0e6 * profile.bandwidth_scale / 8.0 / profile.fps);

  // Tiled: one color encoder on the composed canvas.
  video::VideoEncoder tiled_encoder(config.ColorCodecConfig(), 3);
  double tiled_rmse = 0.0;
  for (std::size_t f = 0; f < seq.frames.size(); ++f) {
    const auto tiled = image::Tile(config.layout, seq.frames[f],
                                   static_cast<std::uint32_t>(f));
    const auto result = tiled_encoder.EncodeToTarget(
        video::RgbToYcbcr(tiled.color), total_budget);
    tiled_rmse += metrics::ColorRmse(
        tiled.color, video::YcbcrToRgb(result.reconstruction));
  }
  tiled_rmse /= static_cast<double>(seq.frames.size());

  // Separate: one encoder per camera, each with an equal budget share.
  video::CodecConfig per_cam = config.ColorCodecConfig();
  per_cam.width = profile.camera_width;
  per_cam.height = profile.camera_height;
  std::vector<video::VideoEncoder> encoders;
  for (int c = 0; c < profile.camera_count; ++c) encoders.emplace_back(per_cam, 3);
  double separate_rmse = 0.0;
  for (std::size_t f = 0; f < seq.frames.size(); ++f) {
    double frame_rmse = 0.0;
    for (int c = 0; c < profile.camera_count; ++c) {
      const auto& view = seq.frames[f][static_cast<std::size_t>(c)];
      const auto result = encoders[static_cast<std::size_t>(c)].EncodeToTarget(
          video::RgbToYcbcr(view.color),
          total_budget / static_cast<std::size_t>(profile.camera_count));
      frame_rmse += metrics::ColorRmse(
          view.color, video::YcbcrToRgb(result.reconstruction));
    }
    separate_rmse += frame_rmse / profile.camera_count;
  }
  separate_rmse /= static_cast<double>(seq.frames.size());

  std::printf("color RMSE, tiled single stream   : %.3f\n", tiled_rmse);
  std::printf("color RMSE, 10 per-camera streams : %.3f\n", separate_rmse);
  std::printf(
      "Expected: tiling is within noise of (or better than) per-camera\n"
      "encoding -- macroblock locality is preserved -- while using one\n"
      "encoder instead of N (the hardware-session limit motivation).\n");
  return 0;
}
