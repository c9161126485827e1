// Frame-level video encoder/decoder with *direct* rate adaptation (§1, §3.3).
//
// The defining property LiVo borrows from 2D conferencing codecs: "such a
// codec takes a desired bandwidth as input, and attempts to encode the frame
// at that target bandwidth by internally controlling the quality parameter
// (QP)". VideoEncoder::EncodeToTarget performs that internal QP control in
// one of two modes (CodecConfig::rate_mode). kSinglePass, which LiVo's live
// encoders run, encodes once at a QP predicted from the last frame of the
// same type (I or P). A frame type with no such frame yet, i.e. each
// encoder's first keyframe and first P-frame, takes the kPrecise search
// instead: up to 8 trial encodes bisecting QP from a warm start at the
// previous frame's QP, plus one encode at qp_max when none of them fits.
// A trial below qp_max stops as soon as its slices have written more bytes
// than the target allows: it would overshoot, and the search never returns
// an overshoot below qp_max. So every frame the encoder returns is a
// complete encode, the same as without the stop, and the discarded trials
// cost only their prefix (counter codec.encode_trials_stopped).
//
// The encoder also returns its reconstruction, bit-exact with the decoder,
// which LiVo's bandwidth-split controller uses as the "immediately decode at
// the sender" quality probe (§3.3).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "image/image.h"
#include "video/codec_types.h"

namespace livo::video {

// Serializes an EncodedFrame for transport and parses it back.
std::vector<std::uint8_t> SerializeFrame(const EncodedFrame& frame);
EncodedFrame DeserializeFrame(const std::vector<std::uint8_t>& bytes);

// Returns a result's reconstruction planes to the frame buffer pool (they
// are pooled storage from EncodePlane). Call once the reconstruction has
// served its purpose — e.g. after the sender's quality probe — to keep the
// steady-state encode path allocation-free.
void ReleaseReconstruction(EncodeResult& result);

class VideoEncoder {
 public:
  // `num_planes` is 3 for color (Y/Cb/Cr) and 1 for depth.
  VideoEncoder(const CodecConfig& config, int num_planes);

  // Rate-controlled encode: picks the lowest QP whose frame size fits
  // `target_bytes`. If even qp_max overshoots, returns the qp_max encode
  // (the transport may then stall, mirroring the paper's observation that
  // LiVo's rare stalls happen "when the rate-adaptive codec overshoots").
  EncodeResult EncodeToTarget(const std::vector<image::Plane16>& planes,
                              std::size_t target_bytes,
                              RateControlStats* stats = nullptr);

  // Fixed-QP encode (used by LiVo-NoAdapt / the Starline-like baseline).
  EncodeResult EncodeAtQp(const std::vector<image::Plane16>& planes, int qp);

  // Forces the next frame to be a keyframe (PLI / FIR handling, §A.1).
  void RequestKeyframe() { force_keyframe_ = true; }

  std::uint32_t next_frame_index() const { return frame_index_; }
  const CodecConfig& config() const { return config_; }

 private:
  // Encodes all planes at `qp` against the current reference; does not
  // mutate encoder state (so rate control can probe several QPs). Every
  // plane draws from `budget` (EncodePlane); a result whose budget ends
  // negative is incomplete.
  EncodeResult TryEncode(const std::vector<image::Plane16>& planes, int qp,
                         bool keyframe,
                         std::atomic<std::int64_t>* budget = nullptr) const;

  // Adopts `result` as the committed frame: reference update + counters.
  void Commit(const EncodeResult& result);

  bool NextIsKeyframe() const {
    return force_keyframe_ || reference_.empty() ||
           (config_.gop_length > 0 &&
            frame_index_ % static_cast<std::uint32_t>(config_.gop_length) == 0);
  }

  CodecConfig config_;
  int num_planes_;
  std::vector<image::Plane16> reference_;
  std::uint32_t frame_index_ = 0;
  bool force_keyframe_ = true;
  int last_qp_;

  // Single-pass rate model state, tracked separately for I and P frames
  // (their size-vs-QP curves differ by an order of magnitude).
  struct RateModel {
    bool valid = false;
    int qp = 0;
    std::size_t bytes = 0;
  };
  RateModel key_model_;
  RateModel p_model_;
};

class VideoDecoder {
 public:
  VideoDecoder(const CodecConfig& config, int num_planes);

  // Decodes a frame, updating the reference. P-frames decoded after a lost
  // frame drift (realistic); callers detect gaps via frame_index and may
  // request a keyframe from the sender.
  std::vector<image::Plane16> Decode(const EncodedFrame& frame);

  // True if `frame` can be decoded without a reference gap.
  bool CanDecodeCleanly(const EncodedFrame& frame) const {
    return frame.keyframe ||
           (has_reference_ && frame.frame_index == last_index_ + 1);
  }

 private:
  CodecConfig config_;
  int num_planes_;
  std::vector<image::Plane16> reference_;
  bool has_reference_ = false;
  std::uint32_t last_index_ = 0;
};

}  // namespace livo::video
