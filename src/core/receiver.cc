#include "core/receiver.h"

#include <algorithm>
#include <stdexcept>

#include "image/depth_encoding.h"
#include "image/plane_pool.h"
#include "kernels/kernels.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "video/color_convert.h"

namespace livo::core {
namespace {

struct ReceiverMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& frames_rendered = reg.GetCounter("receiver.frames_rendered");
  obs::Counter& frames_skipped = reg.GetCounter("receiver.frames_skipped");
  obs::Counter& decode_failures = reg.GetCounter("receiver.decode_failures");
  obs::Counter& marker_mismatches =
      reg.GetCounter("receiver.marker_mismatches");
  obs::Histogram& decode_ms = reg.GetHistogram("receiver.decode_ms");
  obs::Histogram& reconstruct_ms = reg.GetHistogram("receiver.reconstruct_ms");
  obs::Histogram& render_ms = reg.GetHistogram("receiver.render_ms");
};

ReceiverMetrics& Metrics() {
  static ReceiverMetrics metrics;
  return metrics;
}

int DepthStreamPlaneCount(const LiVoConfig& config) {
  return config.depth_mode == DepthEncodingMode::kRgbPacked ? 3 : 1;
}

video::CodecConfig DepthStreamConfig(const LiVoConfig& config) {
  return config.depth_mode == DepthEncodingMode::kRgbPacked
             ? config.ColorCodecConfig()
             : config.DepthCodecConfig();
}

// Nearest-neighbor expansion of decoded low-layer planes back to the full
// canvas, swapping each halved plane's pooled storage for a full-sized one.
void UpsampleToCanvas(std::vector<image::Plane16>& planes, int dw, int dh) {
  const kernels::KernelTable& kt = kernels::Active();
  for (image::Plane16& plane : planes) {
    image::Plane16 full = image::AcquirePooledPlane(dw, dh);
    kt.upscale2x_u16(plane.data().data(), plane.width(), plane.height(),
                     full.data().data(), dw, dh);
    image::ReleasePooledPlane(plane);
    plane = std::move(full);
  }
}

// Reads the in-band marker from YCbCr planes decoded at 1/`divisor` of the
// canvas, building and converting only the canvas rows the marker covers.
// The nearest-neighbor upscale and the color conversion both work pixel by
// pixel, so the result equals a read of the full upscaled, converted canvas.
std::optional<std::uint32_t> ReadCanvasMarker(
    const image::TileLayout& layout, const std::vector<image::Plane16>& planes,
    int divisor) {
  // Canvas rows [y0, marker end), y0 on the divisor grid: canvas row y0 + r
  // then upscales from plane row y0 / divisor + r / divisor.
  const int y0 = layout.MarkerY() / divisor * divisor;
  const int width = layout.canvas_width();
  const int height = layout.MarkerY() + image::kMarkerHeight - y0;
  const kernels::KernelTable& kt = kernels::Active();
  std::vector<image::Plane16> rows;
  for (const image::Plane16& plane : planes) {
    image::Plane16 strip = image::AcquirePooledPlane(width, height);
    const std::uint16_t* src = plane.row(y0 / divisor);
    if (divisor == 1) {
      std::copy_n(src, strip.size(), strip.data().data());
    } else {
      kt.upscale2x_u16(src, plane.width(), plane.height() - y0 / divisor,
                       strip.data().data(), width, height);
    }
    rows.push_back(std::move(strip));
  }
  const image::ColorImage rgb = video::YcbcrToRgb(rows);
  image::ReleasePooledPlanes(rows);
  // The depth marker is more fragile under heavy quantization, so color is
  // the one checked.
  return image::ReadMarkerRgb(rgb, layout.MarkerX(), layout.MarkerY() - y0);
}

}  // namespace

LiVoReceiver::LiVoReceiver(const LiVoConfig& config,
                           const ReceiverConfig& receiver_config,
                           std::vector<geom::RgbdCamera> cameras,
                           int spatial_divisor)
    : config_(config),
      receiver_config_(receiver_config),
      cameras_(std::move(cameras)),
      spatial_divisor_(spatial_divisor),
      color_decoder_(spatial_divisor == 2
                         ? HalveForLadder(config.ColorCodecConfig())
                         : config.ColorCodecConfig(),
                     3),
      depth_decoder_(spatial_divisor == 2 ? HalveForLadder(DepthStreamConfig(config))
                                          : DepthStreamConfig(config),
                     DepthStreamPlaneCount(config)) {
  if (spatial_divisor != 1 && spatial_divisor != 2) {
    throw std::invalid_argument("spatial_divisor must be 1 or 2");
  }
}

std::vector<RenderedFrame> LiVoReceiver::OnFrames(
    const std::vector<net::ReceivedFrame>& frames, double now_ms) {
  return RenderPairs(frames, now_ms, nullptr);
}

std::vector<RenderedFrame> LiVoReceiver::OnFrames(
    const std::vector<net::ReceivedFrame>& frames, double now_ms,
    const geom::Frustum& current_frustum) {
  return RenderPairs(frames, now_ms, &current_frustum);
}

std::vector<RenderedFrame> LiVoReceiver::RenderPairs(
    const std::vector<net::ReceivedFrame>& frames, double now_ms,
    const geom::Frustum* frustum) {
  for (const net::ReceivedFrame& f : frames) {
    if (!f.data) continue;
    PendingPair& pair = pending_[f.frame_index];
    if (f.stream_id == kColorStream) pair.color = f.data;
    if (f.stream_id == kDepthStream) pair.depth = f.data;
  }

  std::vector<RenderedFrame> rendered;
  // Find the newest complete pair; render complete pairs in order and skip
  // incomplete ones that have fallen too far behind ("LiVo simply skips
  // the frame").
  std::uint32_t newest_complete = 0;
  bool have_complete = false;
  for (const auto& [index, pair] : pending_) {
    if (pair.color && pair.depth) {
      newest_complete = index;
      have_complete = true;
    }
  }
  if (!have_complete) return rendered;

  for (auto it = pending_.begin(); it != pending_.end();) {
    const std::uint32_t index = it->first;
    const PendingPair& pair = it->second;
    if (pair.color && pair.depth) {
      if (auto frame = TryRender(index, now_ms, frustum)) {
        rendered.push_back(std::move(*frame));
      }
      it = pending_.erase(it);
    } else if (index + receiver_config_.max_pair_lag <= newest_complete) {
      ++skipped_frames_;
      Metrics().frames_skipped.Add();
      obs::TraceInstant("receiver.skip");
      LIVO_LOG(Debug) << "frame " << index
                      << " skipped: counterpart stream lagged past "
                      << newest_complete;
      it = pending_.erase(it);
    } else {
      break;  // wait for the counterpart stream a little longer
    }
  }
  return rendered;
}

std::optional<RenderedFrame> LiVoReceiver::TryRender(
    std::uint32_t frame_index, double now_ms, const geom::Frustum* frustum) {
  ReceiverMetrics& metrics = Metrics();
  const PendingPair& pair = pending_[frame_index];
  RenderedFrame out;
  out.frame_index = frame_index;
  out.render_time_ms = now_ms;

  // Only a cloud needs the ladder's halved planes back at full canvas
  // size; the marker check upscales just the rows it reads.
  const bool upsample = frustum != nullptr && spatial_divisor_ == 2;
  util::Stopwatch decode_watch;
  std::vector<image::Plane16> color_planes, depth_planes;
  {
    LIVO_SPAN("receiver.decode");
    try {
      const video::EncodedFrame color_frame =
          video::DeserializeFrame(*pair.color);
      const video::EncodedFrame depth_frame =
          video::DeserializeFrame(*pair.depth);
      color_planes = color_decoder_.Decode(color_frame);
      // Decoded even when no cloud is built: a depth P-frame needs the
      // reference chain, and an undecodable depth half skips the frame.
      depth_planes = depth_decoder_.Decode(depth_frame);
    } catch (const std::exception& e) {
      // Undecodable (e.g. P-frame whose keyframe was lost before any
      // keyframe arrived): skip; the transport has already raised PLI.
      ++skipped_frames_;
      metrics.frames_skipped.Add();
      metrics.decode_failures.Add();
      obs::TraceInstant("receiver.decode_failure");
      LIVO_LOG(Debug) << "frame " << frame_index
                      << " undecodable: " << e.what();
      return std::nullopt;
    }
    if (upsample) {
      UpsampleToCanvas(color_planes, config_.layout.canvas_width(),
                       config_.layout.canvas_height());
      UpsampleToCanvas(depth_planes, config_.layout.canvas_width(),
                       config_.layout.canvas_height());
    }
  }
  out.decode_ms = decode_watch.ElapsedMs();
  metrics.decode_ms.Observe(out.decode_ms);

  {
    // In-band frame number verification (§A.1 QR-code role).
    LIVO_SPAN("receiver.verify");
    const auto marker = ReadCanvasMarker(config_.layout, color_planes,
                                         upsample ? 1 : spatial_divisor_);
    out.marker_verified = marker.has_value() && *marker == frame_index;
    if (marker.has_value() && *marker != frame_index) {
      ++marker_mismatches_;
      metrics.marker_mismatches.Add();
      LIVO_LOG(Debug) << "frame " << frame_index
                      << ": in-band marker decoded as " << *marker;
    }
  }

  if (frustum != nullptr) {
    BuildCloud(color_planes, depth_planes, *frustum, out);
  }
  // The decoded planes (pooled storage from DecodePlane) are no longer
  // needed; park them for the next frame.
  image::ReleasePooledPlanes(color_planes);
  image::ReleasePooledPlanes(depth_planes);
  metrics.frames_rendered.Add();
  return out;
}

void LiVoReceiver::BuildCloud(const std::vector<image::Plane16>& color_planes,
                              const std::vector<image::Plane16>& depth_planes,
                              const geom::Frustum& frustum,
                              RenderedFrame& out) const {
  ReceiverMetrics& metrics = Metrics();
  util::Stopwatch reconstruct_watch;
  pointcloud::PointCloud cloud;
  {
    LIVO_SPAN("receiver.reconstruct");
    const image::ColorImage color = video::YcbcrToRgb(color_planes);

    image::DepthImage depth_mm;
    switch (config_.depth_mode) {
      case DepthEncodingMode::kScaledY16:
        depth_mm = image::UnscaleDepth(depth_planes[0], config_.depth_scaler);
        break;
      case DepthEncodingMode::kUnscaledY16:
        depth_mm = depth_planes[0];
        break;
      case DepthEncodingMode::kRgbPacked: {
        image::ColorImage packed(config_.layout.canvas_width(),
                                 config_.layout.canvas_height());
        for (std::size_t i = 0; i < packed.r.data().size(); ++i) {
          packed.r.data()[i] =
              static_cast<std::uint8_t>(depth_planes[0].data()[i]);
          packed.g.data()[i] =
              static_cast<std::uint8_t>(depth_planes[1].data()[i]);
          packed.b.data()[i] =
              static_cast<std::uint8_t>(depth_planes[2].data()[i]);
        }
        depth_mm = image::UnpackDepthFromRgb(packed);
        break;
      }
    }

    const auto views = image::Untile(config_.layout, color, depth_mm);
    cloud = pointcloud::ReconstructFromViews(views, cameras_);
  }
  out.reconstruct_ms = reconstruct_watch.ElapsedMs();
  metrics.reconstruct_ms.Observe(out.reconstruct_ms);

  util::Stopwatch render_watch;
  {
    LIVO_SPAN("receiver.render");
    cloud = pointcloud::VoxelDownsample(cloud, receiver_config_.voxel_size_m);
    if (receiver_config_.final_cull) {
      cloud = cloud.CulledTo(frustum);
    }
  }
  out.render_ms = render_watch.ElapsedMs();
  metrics.render_ms.Observe(out.render_ms);
  out.cloud = std::move(cloud);
}

}  // namespace livo::core
