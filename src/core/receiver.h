// LiVo receiver pipeline (§3, Fig 2 blue blocks; §A.1).
//
// Receives the color and depth streams, pairs frames by sequence number,
// decodes both canvases and verifies each pair against the in-band marker
// (the paper's QR-code role). "If both depth and color frames have not
// been decoded by the time necessary to render the point cloud, LiVo simply
// skips the frame."
//
// Only a caller that consumes the point cloud pays for it, and only on the
// frames it consumes. The frustum overload of OnFrames then untiles the
// decoded canvases into per-camera views, unscales the one depth plane (the
// sender's scaled Y16, §3.2), reconstructs the world-frame cloud using the
// camera parameters exchanged at setup, and voxelizes and culls it to the
// *current* frustum before rendering (§A.1), on every frame or on every
// `cloud_every`-th: a p2p session passes its PSSIM cadence, because PSSIM
// is the only reader of its clouds. The other overload stops after the
// marker check, which reads only the canvas rows the marker covers;
// conference subscribers, which keep only which frames rendered and when,
// use it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/types.h"
#include "geom/camera.h"
#include "net/transport.h"
#include "pointcloud/pointcloud.h"
#include "video/video_codec.h"

namespace livo::core {

struct RenderedFrame {
  std::uint32_t frame_index = 0;
  // Voxelized, culled to the live frustum; empty (and reconstruct_ms,
  // render_ms 0) from the OnFrames overload without a frustum, and on the
  // frames the frustum overload's `cloud_every` passes over.
  pointcloud::PointCloud cloud;
  double render_time_ms = 0.0;
  double decode_ms = 0.0;
  double reconstruct_ms = 0.0;
  double render_ms = 0.0;         // voxelize + final cull
  bool marker_verified = false;
};

// Voxel edge of every reconstructed cloud, the receiver's and the ground
// truth's alike.
inline constexpr double kVoxelSizeM = 0.025;

struct ReceiverConfig {
  // Frames older than this behind the newest complete pair are skipped.
  std::uint32_t max_pair_lag = 2;
  bool final_cull = true;   // cull reconstruction to the live frustum
};

class LiVoReceiver {
 public:
  // `spatial_divisor` = 1 decodes the full canvas; 2 decodes the simulcast
  // ladder's downscaled lowest layer (HalveForLadder geometry) and
  // upsamples the decoded planes back to the full canvas before untiling,
  // so everything downstream of the decoder is resolution-agnostic. The
  // marker check upsamples only the rows it reads.
  LiVoReceiver(const LiVoConfig& config, const ReceiverConfig& receiver_config,
               std::vector<geom::RgbdCamera> cameras, int spatial_divisor = 1);

  // Feeds released transport frames; returns the frames decoded and
  // marker-checked at `now_ms`, with empty clouds. Frames whose counterpart
  // stream never arrived, or that fail to decode, are skipped (counted in
  // skipped_frames()).
  std::vector<RenderedFrame> OnFrames(
      const std::vector<net::ReceivedFrame>& frames, double now_ms);

  // Same frames, skips and marker checks; each frame whose index is a
  // multiple of `cloud_every` is also rendered as a point cloud from the
  // viewer's `current_frustum`. Throws std::invalid_argument when
  // `cloud_every` is 0.
  std::vector<RenderedFrame> OnFrames(
      const std::vector<net::ReceivedFrame>& frames, double now_ms,
      const geom::Frustum& current_frustum, std::uint32_t cloud_every = 1);

  std::size_t skipped_frames() const { return skipped_frames_; }
  std::size_t marker_mismatches() const { return marker_mismatches_; }

 private:
  // Both OnFrames overloads: pairs, skips and renders; clouds are built
  // only when `frustum` is non-null, on every `cloud_every`-th frame.
  std::vector<RenderedFrame> RenderPairs(
      const std::vector<net::ReceivedFrame>& frames, double now_ms,
      const geom::Frustum* frustum, std::uint32_t cloud_every);
  // Decodes the pending pair and checks its marker, then builds the cloud
  // when `frustum` is non-null; nullopt (skipped) if a stream is
  // undecodable.
  std::optional<RenderedFrame> TryRender(std::uint32_t frame_index,
                                         double now_ms,
                                         const geom::Frustum* frustum);
  // Reconstructs, voxelizes and culls full-canvas planes into out.cloud.
  void BuildCloud(const std::vector<image::Plane16>& color_planes,
                  const std::vector<image::Plane16>& depth_planes,
                  const geom::Frustum& frustum, RenderedFrame& out) const;

  LiVoConfig config_;
  ReceiverConfig receiver_config_;
  std::vector<geom::RgbdCamera> cameras_;
  int spatial_divisor_;
  video::VideoDecoder color_decoder_;
  video::VideoDecoder depth_decoder_;

  struct PendingPair {
    std::shared_ptr<const std::vector<std::uint8_t>> color;
    std::shared_ptr<const std::vector<std::uint8_t>> depth;
  };
  std::map<std::uint32_t, PendingPair> pending_;
  std::size_t skipped_frames_ = 0;
  std::size_t marker_mismatches_ = 0;
};

}  // namespace livo::core
