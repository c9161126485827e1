#include "core/sender.h"

#include <algorithm>
#include <stdexcept>

#include "image/depth_encoding.h"
#include "kernels/kernels.h"
#include "metrics/image_metrics.h"
#include "obs/obs.h"
#include "util/clock.h"
#include "util/thread_pool.h"
#include "video/color_convert.h"

namespace livo::core {
namespace {

struct SenderMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& frames = reg.GetCounter("sender.frames");
  obs::Counter& color_bytes = reg.GetCounter("sender.color_bytes");
  obs::Counter& depth_bytes = reg.GetCounter("sender.depth_bytes");
  obs::Counter& probes = reg.GetCounter("sender.split_probes");
  obs::Gauge& split = reg.GetGauge("sender.split");
  obs::Gauge& target_bps = reg.GetGauge("sender.target_bps");
  obs::Gauge& cull_kept = reg.GetGauge("sender.cull_kept_fraction");
  obs::Histogram& cull_ms = reg.GetHistogram("sender.cull_ms");
  obs::Histogram& tile_ms = reg.GetHistogram("sender.tile_ms");
  obs::Histogram& encode_ms = reg.GetHistogram("sender.encode_ms");
};

SenderMetrics& Metrics() {
  static SenderMetrics metrics;
  return metrics;
}

// Codec config of lower ladder layer `q`. Full-resolution mid layers keep
// the top-layer geometry; the lowest layer (q == 0) encodes the halved
// canvas. Motion search is disabled on every lower layer: they are the
// degraded rungs, and skipping the SAD search keeps the whole ladder's
// encode cost within ~2x a single-layer encode.
video::CodecConfig LadderLayerConfig(video::CodecConfig top, int q) {
  top.motion_search = false;
  return q == 0 ? HalveForLadder(top) : top;
}

// QP of lower layer `q` relative to the committed top-layer QP.
int LadderLayerQp(const video::CodecConfig& config, int layers, int q,
                  int top_qp) {
  const int qp = top_qp + (layers - 1 - q) * kLadderQpStep;
  return std::clamp(qp, config.qp_min, config.qp_max);
}

}  // namespace

LiVoSender::LiVoSender(const LiVoConfig& config,
                       std::vector<geom::RgbdCamera> cameras)
    : config_(config),
      cameras_(std::move(cameras)),
      predictor_(config.predictor),
      splitter_(config.split),
      color_encoder_(config.ColorCodecConfig(), 3),
      depth_encoder_(config.DepthCodecConfig(), 1) {
  if (static_cast<int>(cameras_.size()) != config_.layout.camera_count()) {
    throw std::invalid_argument("camera count does not match tile layout");
  }
  if (config_.simulcast_layers < 1) {
    throw std::invalid_argument("simulcast_layers must be >= 1");
  }
  for (int q = 0; q < config_.simulcast_layers - 1; ++q) {
    lower_color_encoders_.emplace_back(
        LadderLayerConfig(config_.ColorCodecConfig(), q), 3);
    lower_depth_encoders_.emplace_back(
        LadderLayerConfig(config_.DepthCodecConfig(), q), 1);
  }
}

void LiVoSender::RequestKeyframe(std::uint32_t stream_id) {
  // A PLI re-keys the whole ladder of its stream type: layer switches are
  // only legal at keyframes, so every layer must offer one together.
  if (stream_id == kColorStream) {
    color_encoder_.RequestKeyframe();
    for (auto& encoder : lower_color_encoders_) encoder.RequestKeyframe();
  }
  if (stream_id == kDepthStream) {
    depth_encoder_.RequestKeyframe();
    for (auto& encoder : lower_depth_encoders_) encoder.RequestKeyframe();
  }
}

SenderOutput LiVoSender::ProcessFrame(std::vector<image::RgbdFrame> views,
                                      std::uint32_t frame_index,
                                      double target_bps) {
  SenderMetrics& metrics = Metrics();
  LIVO_SPAN("sender.frame");
  // FEC carve (src/fec): media gets target / (1 + overhead) so that media
  // plus its parity packets together fill — never exceed — the GCC target.
  if (parity_overhead_ > 0.0) {
    target_bps /= 1.0 + parity_overhead_;
  }
  SenderOutput out;
  out.stats.frame_index = frame_index;
  out.stats.target_bps = target_bps;
  metrics.target_bps.Set(target_bps);

  // --- View culling (§3.4) ---
  util::Stopwatch cull_watch;
  {
    LIVO_SPAN("sender.cull");
    if (config_.enable_culling && predictor_.ready()) {
      const geom::Frustum frustum = predictor_.PredictFrustum();
      const CullStats cull = CullViews(views, cameras_, frustum);
      out.stats.cull_kept_fraction = cull.KeptFraction();
      metrics.cull_kept.Set(out.stats.cull_kept_fraction);
    }
  }
  metrics.cull_ms.Observe(cull_watch.ElapsedMs());

  // --- Stream composition by tiling (§3.2) ---
  util::Stopwatch tile_watch;
  image::TiledFramePair tiled = [&] {
    LIVO_SPAN("sender.tile");
    return image::Tile(config_.layout, views, frame_index);
  }();
  metrics.tile_ms.Observe(tile_watch.ElapsedMs());

  // --- Depth scaled into the full 16-bit Y range (§3.2) ---
  // depth_planes_ / color_planes_ are member buffers: plane copy-assignment
  // reuses existing capacity, so after the first frame these stages run
  // without frame-sized allocations.
  depth_planes_.resize(1);
  depth_planes_[0] = tiled.depth;
  image::ScaleDepthInPlace(depth_planes_[0], kDepthScaler);
  const std::vector<image::Plane16>& depth_planes = depth_planes_;
  video::RgbToYcbcrInto(tiled.color, color_planes_);
  const std::vector<image::Plane16>& color_planes = color_planes_;

  // --- Bandwidth split + rate-controlled encode (§3.3) ---
  util::Stopwatch encode_watch;
  const double split = splitter_.split();
  out.stats.split = split;
  metrics.split.Set(split);
  if (obs::TimeSeriesEnabled()) {
    // Inside an EventLoop run the loop publishes virtual time; standalone
    // (tick-driven) runs fall back to the frame's nominal capture time.
    const double vt = obs::HasVirtualNow()
                          ? obs::VirtualNowMs()
                          : frame_index * 1000.0 / config_.fps;
    obs::Registry& reg = obs::Registry::Get();
    reg.GetTimeSeries(config_.obs_label + ".split").Sample(vt, split);
    reg.GetTimeSeries(config_.obs_label + ".target_bps")
        .Sample(vt, target_bps);
  }
  const double frame_budget_bytes = target_bps / 8.0 / config_.fps;

  video::EncodeResult color_result, depth_result;
  {
    LIVO_SPAN("sender.encode");
    // The color and depth encoders are independent state machines, so the
    // two streams encode concurrently: color on a pool lane, depth on this
    // thread. Wait() orders both results before the credit update below.
    util::ThreadPool::TaskGroup encoders(util::SharedPool());
    if (config_.enable_adaptation) {
      // Leaky-bucket amortization: frames that undershot their budget bank
      // credit that keyframes spend, so the long-run rate tracks the target
      // while I-frames are not forced to fit a single frame's share.
      byte_credit_ = std::min(byte_credit_, 3.0 * frame_budget_bytes);
      const double spendable =
          std::max(0.3 * frame_budget_bytes, frame_budget_bytes + byte_credit_);
      const auto depth_budget = static_cast<std::size_t>(spendable * split);
      const auto color_budget =
          static_cast<std::size_t>(spendable * (1.0 - split));
      encoders.Run([&] {
        color_result = color_encoder_.EncodeToTarget(color_planes,
                                                     color_budget);
      });
      depth_result = depth_encoder_.EncodeToTarget(depth_planes, depth_budget);
      encoders.Wait();
      const double spent =
          static_cast<double>(color_result.frame.SizeBytes() +
                              depth_result.frame.SizeBytes());
      byte_credit_ += frame_budget_bytes - spent;
      byte_credit_ = std::max(byte_credit_, -3.0 * frame_budget_bytes);
    } else {
      encoders.Run([&] {
        color_result = color_encoder_.EncodeAtQp(color_planes, kFixedColorQp);
      });
      depth_result = depth_encoder_.EncodeAtQp(depth_planes, kFixedDepthQp);
      encoders.Wait();
    }

    // --- Lower simulcast layers (encode-once ladder; §A.1) ---
    // Each lower layer re-encodes the just-prepared planes once, priced off
    // the committed top-layer QP — per layer, never per subscriber. The
    // lowest layer first passes through the kernel downscalers into member
    // buffers, so the steady state stays free of frame-sized allocations.
    if (config_.simulcast_layers > 1) {
      LIVO_SPAN("sender.ladder");
      const int layers = config_.simulcast_layers;
      out.lower_layers.resize(static_cast<std::size_t>(layers - 1));
      const kernels::KernelTable& kt = kernels::Active();
      const auto downscale_into =
          [&kt](const std::vector<image::Plane16>& src, bool avg, int dw,
                int dh, std::vector<image::Plane16>& dst) {
            dst.resize(src.size());
            for (std::size_t i = 0; i < src.size(); ++i) {
              if (dst[i].width() != dw || dst[i].height() != dh) {
                dst[i] = image::Plane16(dw, dh);
              }
              (avg ? kt.downscale2x_avg_u16 : kt.downscale2x_pick_u16)(
                  src[i].data().data(), src[i].width(), src[i].height(),
                  dst[i].data().data(), dw, dh);
            }
          };
      for (int q = layers - 2; q >= 0; --q) {
        video::VideoEncoder& color_low_encoder =
            lower_color_encoders_[static_cast<std::size_t>(q)];
        video::VideoEncoder& depth_low_encoder =
            lower_depth_encoders_[static_cast<std::size_t>(q)];
        const std::vector<image::Plane16>* layer_color = &color_planes;
        const std::vector<image::Plane16>* layer_depth = &depth_planes;
        if (q == 0) {
          const video::CodecConfig& low = color_low_encoder.config();
          // Box-filter color; pick depth so silhouette depths never blend
          // (and the 0 = invalid sentinel survives).
          downscale_into(color_planes, /*avg=*/true, low.width, low.height,
                         low_color_planes_);
          downscale_into(depth_planes, /*avg=*/false, low.width, low.height,
                         low_depth_planes_);
          layer_color = &low_color_planes_;
          layer_depth = &low_depth_planes_;
        }
        video::EncodeResult color_low = color_low_encoder.EncodeAtQp(
            *layer_color,
            LadderLayerQp(color_low_encoder.config(), layers, q,
                          color_result.frame.qp));
        video::EncodeResult depth_low = depth_low_encoder.EncodeAtQp(
            *layer_depth,
            LadderLayerQp(depth_low_encoder.config(), layers, q,
                          depth_result.frame.qp));
        SenderLayerOutput& layer =
            out.lower_layers[static_cast<std::size_t>(q)];
        layer.color_keyframe = color_low.frame.keyframe;
        layer.depth_keyframe = depth_low.frame.keyframe;
        layer.color_frame = std::make_shared<const std::vector<std::uint8_t>>(
            video::SerializeFrame(color_low.frame));
        layer.depth_frame = std::make_shared<const std::vector<std::uint8_t>>(
            video::SerializeFrame(depth_low.frame));
        video::ReleaseReconstruction(color_low);
        video::ReleaseReconstruction(depth_low);
      }
    }
  }
  metrics.encode_ms.Observe(encode_watch.ElapsedMs());

  // --- Sender-side quality probe and split line search (§3.3) ---
  if (config_.enable_adaptation && splitter_.ShouldProbe(frame_index)) {
    LIVO_SPAN("sender.probe");
    metrics.probes.Add();
    const image::ColorImage decoded_color =
        video::YcbcrToRgb(color_result.reconstruction);
    const double rmse_color = metrics::ColorRmse(tiled.color, decoded_color);
    // Depth error in the scaled codes the codec saw (the encoder's input).
    const double rmse_depth =
        metrics::PlaneRmse(depth_planes[0], depth_result.reconstruction[0]);
    out.stats.rmse_color = rmse_color;
    out.stats.rmse_depth = rmse_depth;
    splitter_.Update(rmse_depth, rmse_color);
  }

  out.color_keyframe = color_result.frame.keyframe;
  out.depth_keyframe = depth_result.frame.keyframe;
  out.color_frame = std::make_shared<const std::vector<std::uint8_t>>(
      video::SerializeFrame(color_result.frame));
  out.depth_frame = std::make_shared<const std::vector<std::uint8_t>>(
      video::SerializeFrame(depth_result.frame));
  out.stats.color_bytes = out.color_frame->size();
  out.stats.depth_bytes = out.depth_frame->size();
  // The committed reconstructions have served the quality probe; park their
  // storage for the next frame's encodes.
  video::ReleaseReconstruction(color_result);
  video::ReleaseReconstruction(depth_result);
  metrics.frames.Add();
  metrics.color_bytes.Add(out.stats.color_bytes);
  metrics.depth_bytes.Add(out.stats.depth_bytes);
  LIVO_LOG(Trace) << "frame " << frame_index << ": split " << split
                  << ", target " << target_bps / 1e6 << " Mbps, color "
                  << out.stats.color_bytes << " B (qp "
                  << color_result.frame.qp << "), depth "
                  << out.stats.depth_bytes << " B (qp "
                  << depth_result.frame.qp << ")";
  return out;
}

}  // namespace livo::core
