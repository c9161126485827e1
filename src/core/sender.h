// LiVo sender pipeline (§3, Fig 2 green blocks).
//
// Per frame: predict the receiver's frustum and cull the RGB-D views
// (§3.4), tile the N views into one color and one depth canvas (§3.2),
// scale depth into the full 16-bit Y range (§3.2), split the transport's
// bandwidth estimate between the two streams (§3.3), and encode each canvas
// with the rate-adaptive 2D codec at its share of the budget. Every k
// frames the encoder reconstruction (= sender-side decode) is compared to
// the input to update the split via line search. Depth is always scaled Y16
// and the split always this line search: the unscaled and RGB-packed depth
// baselines (Fig 17) and the static splits (Figs 18/19) run in their own
// benches.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/culling.h"
#include "core/frustum_predictor.h"
#include "core/split.h"
#include "core/types.h"
#include "geom/camera.h"
#include "video/video_codec.h"

namespace livo::core {

// One lower simulcast layer of a frame (the top layer lives in the
// SenderOutput fields below, keeping single-layer callers untouched).
struct SenderLayerOutput {
  std::shared_ptr<const std::vector<std::uint8_t>> color_frame;
  std::shared_ptr<const std::vector<std::uint8_t>> depth_frame;
  bool color_keyframe = false;
  bool depth_keyframe = false;
};

struct SenderOutput {
  std::shared_ptr<const std::vector<std::uint8_t>> color_frame;
  std::shared_ptr<const std::vector<std::uint8_t>> depth_frame;
  bool color_keyframe = false;
  bool depth_keyframe = false;
  // Lower ladder layers, indexed by layer q in [0, simulcast_layers-1):
  // [0] is the downscaled lowest layer. Empty when simulcast_layers == 1.
  std::vector<SenderLayerOutput> lower_layers;
  SenderFrameStats stats;
};

class LiVoSender {
 public:
  LiVoSender(const LiVoConfig& config,
             std::vector<geom::RgbdCamera> cameras);

  // Receiver pose feedback + RTT from the transport (drives prediction).
  void ObservePoseFeedback(const geom::TimedPose& pose) {
    predictor_.ObservePose(pose);
  }
  void ObserveRtt(double rtt_ms) { predictor_.ObserveRtt(rtt_ms); }

  // PLI/FIR from the receiver (per stream).
  void RequestKeyframe(std::uint32_t stream_id);

  // Parity share of the transport budget (FEC, src/fec): ProcessFrame
  // reserves target_bps * overhead / (1 + overhead) for parity packets
  // before the depth/color line-search splits the remainder, so FEC never
  // steals from the split blindly. 0 (the default) disables the carve.
  void SetParityOverhead(double overhead) {
    parity_overhead_ = std::max(0.0, overhead);
  }
  double parity_overhead() const { return parity_overhead_; }

  // Processes one captured frame. `views` is consumed (culled in place).
  // `target_bps` is the transport's current bandwidth estimate.
  SenderOutput ProcessFrame(std::vector<image::RgbdFrame> views,
                            std::uint32_t frame_index, double target_bps);

  const FrustumPredictor& predictor() const { return predictor_; }
  const SplitController& splitter() const { return splitter_; }
  const LiVoConfig& config() const { return config_; }

 private:
  LiVoConfig config_;
  std::vector<geom::RgbdCamera> cameras_;
  FrustumPredictor predictor_;
  SplitController splitter_;
  video::VideoEncoder color_encoder_;
  video::VideoEncoder depth_encoder_;
  // Lower simulcast layer encoders, indexed by layer q in
  // [0, simulcast_layers-1); empty for single-layer senders. They advance
  // in lockstep with the top encoders (same GOP phase, same PLI re-keys),
  // so keyframes align across the whole ladder.
  std::vector<video::VideoEncoder> lower_color_encoders_;
  std::vector<video::VideoEncoder> lower_depth_encoders_;
  // Unspent (or overdrawn) bytes relative to the long-run rate target;
  // lets keyframes borrow against credit banked by cheap P-frames.
  double byte_credit_ = 0.0;
  // Current FEC parity/media ratio reserved out of the GCC target.
  double parity_overhead_ = 0.0;
  // Frame-sized plane buffers reused across ProcessFrame calls so the
  // steady-state encode path performs no frame-sized allocations.
  std::vector<image::Plane16> color_planes_;
  std::vector<image::Plane16> depth_planes_;
  // Halved-canvas buffers for the ladder's downscaled lowest layer.
  std::vector<image::Plane16> low_color_planes_;
  std::vector<image::Plane16> low_depth_planes_;
};

}  // namespace livo::core
