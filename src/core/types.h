// Configuration and result types of the LiVo pipeline (livo::core).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/frustum_predictor.h"
#include "core/split.h"
#include "image/depth_encoding.h"
#include "image/tiling.h"
#include "util/stats.h"
#include "video/codec_types.h"

namespace livo::core {

// Which depth representation the depth stream carries (Fig 17 ablation).
enum class DepthEncodingMode {
  kScaledY16,    // LiVo: millimetres scaled to the full 16-bit Y range
  kUnscaledY16,  // raw millimetres in the 16-bit Y channel (Fig A.1)
  kRgbPacked,    // 16-bit depth split across 8-bit color channels
};

struct LiVoConfig {
  image::TileLayout layout{10, 80, 72};
  image::DepthScaler depth_scaler;           // 6 m commodity ToF range
  DepthEncodingMode depth_mode = DepthEncodingMode::kScaledY16;
  SplitConfig split;
  FrustumPredictorConfig predictor;
  double fps = 30.0;
  // Worker cap handed to both codecs' slice parallelism (0 = all hardware
  // threads, 1 = serial). Never changes the encoded bytes — the slice
  // format is thread-count-invariant — so results are identical for any
  // value; tests sweep it to assert exactly that.
  int codec_threads = 0;

  // Prefix for this sender's time-series instruments (`<label>.split`,
  // `<label>.target_bps`). Pure observability: excluded from cache keys
  // and fingerprints, never changes encoded bytes.
  std::string obs_label = "sender";

  // Ablation switches (baselines of §4):
  bool enable_culling = true;        // off = LiVo-NoCull
  bool enable_adaptation = true;     // off = LiVo-NoAdapt (fixed QP)
  bool dynamic_split = true;         // off = static split
  double static_split = 0.9;
  // Fixed-quality baseline (§4.5): the paper uses Starline's nvenc values
  // (color QP 22, depth QP 14). Our codec's QP scale differs; these values
  // are calibrated so the fixed-quality rate stands in the same relation
  // to the trace capacities (~1.2x trace-1, ~3x trace-2) as in the paper.
  int fixed_color_qp = 24;
  int fixed_depth_qp = 42;

  // --- Simulcast ladder (SFU conferencing; §A.1) ---
  // Number of quality layers encoded per frame. 1 = the classic single
  // stream (direct sessions, all ablations). With L > 1 the sender encodes
  // every frame L times — once per layer, never per subscriber: layer L-1
  // is the rate-controlled full-quality stream; each lower full-resolution
  // layer re-encodes the same planes at +ladder_qp_step QP per step down;
  // the lowest layer additionally halves both canvas dimensions through the
  // kernel downscalers (~1/4 the pixels). Keyframes stay aligned across
  // layers: all layer encoders advance in lockstep and share GOP phase and
  // PLI re-key requests, which is what lets the SFU switch a subscriber's
  // layer only at keyframes without breaking P-frame continuity.
  int simulcast_layers = 1;
  int ladder_qp_step = 6;

  video::CodecConfig ColorCodecConfig() const {
    video::CodecConfig c;
    c.width = layout.canvas_width();
    c.height = layout.canvas_height();
    c.kind = video::PlaneKind::kColor8;
    c.rate_mode = video::RateControlMode::kSinglePass;  // live encoder
    c.qp_min = 2;
    // Extended beyond H.265's QP 51 ceiling: at this reduced canvas scale
    // the per-frame budget is tiny in absolute bytes, so the codec needs
    // proportionally deeper quantization than standard streams do. See
    // EXPERIMENTS.md "scale model" for the consequences.
    c.qp_max = 62;
    // Slices aligned to the camera-tile grid: one independent band per
    // tile row (plus the marker strip remainder), encoded/decoded across
    // all available cores. Identical bitstreams for any thread count.
    c.slice_height = layout.tile_height();
    c.max_threads = codec_threads;
    return c;
  }

  video::CodecConfig DepthCodecConfig() const {
    video::CodecConfig c;
    c.width = layout.canvas_width();
    c.height = layout.canvas_height();
    c.kind = video::PlaneKind::kDepth16;
    c.rate_mode = video::RateControlMode::kSinglePass;  // live encoder
    c.qp_min = 2;
    // Extended beyond H.265's QP 51 (see ColorCodecConfig note); 16-bit
    // samples need a correspondingly wider range.
    c.qp_max = 92;
    // Same tile-aligned slice grid as the color stream (see above).
    c.slice_height = layout.tile_height();
    c.max_threads = codec_threads;
    return c;
  }
};

inline constexpr std::uint32_t kColorStream = 0;
inline constexpr std::uint32_t kDepthStream = 1;

// Uplink stream ids of simulcast layer `q` (top layer = layers-1). The top
// layer keeps the canonical ids 0/1, so single-layer senders and the direct
// session path are untouched; lower layers move to higher id pairs.
inline std::uint32_t LadderColorStream(int layers, int q) {
  return 2u * static_cast<std::uint32_t>(layers - 1 - q);
}
inline std::uint32_t LadderDepthStream(int layers, int q) {
  return LadderColorStream(layers, q) + 1u;
}

// Codec config of the ladder's downscaled lowest layer: halved canvas
// rounded up to the codec's 8-pixel block grid (the downscaler pads by edge
// replication), one slice per plane — the tile-aligned slice grid does not
// survive halving, and the planes are small enough that slice parallelism
// stops paying.
inline video::CodecConfig HalveForLadder(video::CodecConfig c) {
  const auto half8 = [](int v) { return ((v + 1) / 2 + 7) / 8 * 8; };
  c.width = half8(c.width);
  c.height = half8(c.height);
  c.slice_height = 0;
  return c;
}

// Expected uplink bytes of the whole ladder relative to the top layer
// alone, from the codec's bits ~ 2^(-QP/6) model (+step QP per layer down;
// the lowest layer also carries ~1/4 the pixels). The participant divides
// its uplink bandwidth constraint by this factor so the ladder as a whole
// fits what GCC grants.
inline double LadderOverheadFactor(int layers, int qp_step) {
  if (layers <= 1) return 1.0;
  double factor = 1.0;
  for (int q = layers - 2; q >= 0; --q) {
    const double rel = std::pow(2.0, -(layers - 1 - q) * qp_step / 6.0);
    factor += q == 0 ? 0.25 * rel : rel;
  }
  return factor;
}

// Per-frame sender telemetry.
struct SenderFrameStats {
  std::uint32_t frame_index = 0;
  double split = 0.0;
  double target_bps = 0.0;
  std::size_t color_bytes = 0;
  std::size_t depth_bytes = 0;
  double cull_kept_fraction = 1.0;
  double rmse_color = -1.0;  // -1 when the probe did not run this frame
  double rmse_depth = -1.0;
  double cull_ms = 0.0;
  double tile_ms = 0.0;
  double encode_ms = 0.0;
};

// Per-frame receiver/metric record assembled by the session driver.
struct FrameRecord {
  std::uint32_t frame_index = 0;
  bool rendered = false;
  double capture_time_ms = 0.0;
  double render_time_ms = 0.0;   // when the receiver displayed it
  double latency_ms = 0.0;       // end-to-end including processing
  double pssim_geometry = -1.0;  // -1 = metric not sampled on this frame
  double pssim_color = -1.0;
  SenderFrameStats sender;
};

// Aggregated outcome of one (video, user trace, network trace, scheme) run.
struct SessionResult {
  std::string scheme;
  std::string video;
  std::string user_trace;
  std::string net_trace;

  std::vector<FrameRecord> frames;

  // Aggregates (stalled frames contribute PSSIM 0, as in §4.3).
  double mean_pssim_geometry = 0.0;
  double mean_pssim_color = 0.0;
  double stall_rate = 0.0;
  double fps = 0.0;
  double target_fps = 30.0;
  double mean_latency_ms = 0.0;
  double mean_throughput_mbps = 0.0;   // paper-scale (unscaled) Mbps
  double mean_capacity_mbps = 0.0;     // paper-scale trace capacity
  double utilization = 0.0;            // throughput / capacity

  util::RunningStats sender_cull_ms;
  util::RunningStats sender_tile_ms;
  util::RunningStats sender_encode_ms;
  util::RunningStats receiver_decode_ms;
  util::RunningStats receiver_reconstruct_ms;
  util::RunningStats receiver_render_ms;
  util::RunningStats transport_ms;
};

}  // namespace livo::core
