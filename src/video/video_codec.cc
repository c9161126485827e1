#include "video/video_codec.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "image/plane_pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"
#include "video/plane_codec.h"

namespace livo::video {
namespace {

struct CodecMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& encode_trials = reg.GetCounter("codec.encode_trials");
  obs::Counter& overshoots = reg.GetCounter("codec.rate_overshoots");
  obs::Counter& trials_stopped = reg.GetCounter("codec.encode_trials_stopped");
};

CodecMetrics& Metrics() {
  static CodecMetrics metrics;
  return metrics;
}

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t ReadU32(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  if (pos + 4 > in.size()) throw std::runtime_error("truncated frame header");
  const std::uint32_t v = (static_cast<std::uint32_t>(in[pos]) << 24) |
                          (static_cast<std::uint32_t>(in[pos + 1]) << 16) |
                          (static_cast<std::uint32_t>(in[pos + 2]) << 8) |
                          static_cast<std::uint32_t>(in[pos + 3]);
  pos += 4;
  return v;
}

// The bytes a frame's plane bitstreams may hold within `target_bytes`: the
// target less the frame header and every plane's length prefix, negative
// when not even those fit. Saturates at INT64_MAX.
std::int64_t PlaneByteAllowance(std::size_t target_bytes, int num_planes) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (target_bytes > static_cast<std::size_t>(kMax)) return kMax;
  return static_cast<std::int64_t>(target_bytes) -
         static_cast<std::int64_t>(EncodedFrame::kFrameHeaderBytes) -
         static_cast<std::int64_t>(EncodedFrame::kPlaneHeaderBytes) *
             num_planes;
}

}  // namespace

void ReleaseReconstruction(EncodeResult& result) {
  image::ReleasePooledPlanes(result.reconstruction);
}

std::vector<std::uint8_t> SerializeFrame(const EncodedFrame& frame) {
  std::vector<std::uint8_t> out;
  AppendU32(out, frame.frame_index);
  out.push_back(frame.keyframe ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(frame.qp));
  out.push_back(static_cast<std::uint8_t>(frame.planes.size()));
  out.push_back(0);  // reserved
  for (const auto& plane : frame.planes) {
    AppendU32(out, static_cast<std::uint32_t>(plane.bits.size()));
    out.insert(out.end(), plane.bits.begin(), plane.bits.end());
  }
  return out;
}

EncodedFrame DeserializeFrame(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  EncodedFrame frame;
  frame.frame_index = ReadU32(bytes, pos);
  if (pos + 4 > bytes.size()) throw std::runtime_error("truncated frame header");
  frame.keyframe = bytes[pos++] != 0;
  frame.qp = bytes[pos++];
  const int num_planes = bytes[pos++];
  ++pos;  // reserved
  for (int i = 0; i < num_planes; ++i) {
    const std::uint32_t len = ReadU32(bytes, pos);
    if (pos + len > bytes.size()) throw std::runtime_error("truncated plane data");
    EncodedPlane plane;
    plane.bits.assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                      bytes.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    frame.planes.push_back(std::move(plane));
  }
  return frame;
}

VideoEncoder::VideoEncoder(const CodecConfig& config, int num_planes)
    : config_(config),
      num_planes_(num_planes),
      last_qp_((config.qp_min + config.qp_max) / 2) {
  if (num_planes <= 0) throw std::invalid_argument("num_planes must be > 0");
}

EncodeResult VideoEncoder::TryEncode(const std::vector<image::Plane16>& planes,
                                     int qp, bool keyframe,
                                     std::atomic<std::int64_t>* budget) const {
  if (static_cast<int>(planes.size()) != num_planes_) {
    throw std::invalid_argument("plane count mismatch");
  }
  EncodeResult result;
  result.frame.frame_index = frame_index_;
  result.frame.keyframe = keyframe;
  result.frame.qp = qp;
  // Planes are independent (each predicts only from its own reference
  // plane), so they encode concurrently; results land by plane index, so
  // the frame is identical for any thread count. Slice-level fan-out
  // inside EncodePlane nests in the same pool.
  result.frame.planes.resize(static_cast<std::size_t>(num_planes_));
  result.reconstruction.resize(static_cast<std::size_t>(num_planes_));
  util::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : util::SharedPool();
  pool.ParallelFor(num_planes_, config_.max_threads, [&](int i) {
    const auto p = static_cast<std::size_t>(i);
    const image::Plane16* ref = keyframe ? nullptr : &reference_[p];
    PlaneEncodeOutput out = EncodePlane(config_, planes[p], ref, qp, budget);
    result.frame.planes[p].bits = std::move(out.bits);
    result.reconstruction[p] = std::move(out.reconstruction);
  });
  return result;
}

void VideoEncoder::Commit(const EncodeResult& result) {
  reference_ = result.reconstruction;
  ++frame_index_;
  force_keyframe_ = false;
  last_qp_ = result.frame.qp;
}

EncodeResult VideoEncoder::EncodeAtQp(const std::vector<image::Plane16>& planes,
                                      int qp) {
  EncodeResult result = TryEncode(planes, qp, NextIsKeyframe());
  Commit(result);
  return result;
}

EncodeResult VideoEncoder::EncodeToTarget(
    const std::vector<image::Plane16>& planes, std::size_t target_bytes,
    RateControlStats* stats) {
  const bool keyframe = NextIsKeyframe();

  // Single-pass mode: predict QP from the last same-type frame and encode
  // exactly once. bits(QP) halves every 6 QP, so the correction is
  // 6*log2(last_bytes / target); aiming at ~92% of the budget leaves a
  // little headroom, yet content changes still overshoot occasionally.
  RateModel& model = keyframe ? key_model_ : p_model_;
  if (config_.rate_mode == RateControlMode::kSinglePass && model.valid) {
    const double aim = std::max(1.0, 0.92 * static_cast<double>(target_bytes));
    const double correction =
        6.0 * std::log2(static_cast<double>(std::max<std::size_t>(1, model.bytes)) / aim);
    const int qp = std::clamp(
        model.qp + static_cast<int>(std::lround(correction)), config_.qp_min,
        config_.qp_max);
    EncodeResult result = TryEncode(planes, qp, keyframe);
    Metrics().encode_trials.Add();
    if (result.frame.SizeBytes() > target_bytes) {
      Metrics().overshoots.Add();
      LIVO_LOG(Debug) << "single-pass overshoot: frame "
                      << result.frame.frame_index << " at qp " << qp << " is "
                      << result.frame.SizeBytes() << " bytes, target "
                      << target_bytes;
    }
    model.qp = qp;
    model.bytes = result.frame.SizeBytes();
    if (stats != nullptr) {
      stats->chosen_qp = qp;
      stats->trials = 1;
      stats->target_bytes = target_bytes;
      stats->actual_bytes = result.frame.SizeBytes();
    }
    Commit(result);
    return result;
  }

  // Frame size is monotonically non-increasing in QP; find the smallest QP
  // whose encode fits the target. Warm-start from the previous frame's QP:
  // in steady state (stable scene complexity and bandwidth) the optimal QP
  // is last frame's, confirmed by one probe at QP-1, i.e. 2 trials.
  std::optional<EncodeResult> best;        // smallest fitting QP seen
  std::optional<EncodeResult> overshoot;   // fallback if nothing fits
  int trials = 0;
  constexpr int kMaxTrials = 8;

  // Every discarded attempt hands its reconstruction planes back to the
  // pool, so rate-control probing allocates nothing in steady state.
  //
  // A trial below qp_max draws its planes' bytes from the target's
  // allowance and stops once it is spent. Such a trial overshoots, and an
  // overshoot below qp_max is never returned: the smallest fitting QP wins,
  // and when nothing fits the qp_max encode, which has no allowance, is
  // returned. So the stop changes no result, only the work a trial does.
  // Where threads stop is scheduling-dependent; whether one stops is not.
  const std::int64_t allowance = PlaneByteAllowance(target_bytes, num_planes_);
  const auto attempt_qp = [&](int qp) -> bool {  // returns "fits"
    std::atomic<std::int64_t> budget{allowance};
    std::atomic<std::int64_t>* const cap =
        qp != config_.qp_max ? &budget : nullptr;
    EncodeResult attempt = TryEncode(planes, qp, keyframe, cap);
    ++trials;
    const bool stopped =
        cap != nullptr && budget.load(std::memory_order_relaxed) < 0;
    if (stopped) Metrics().trials_stopped.Add();
    if (!stopped && attempt.frame.SizeBytes() <= target_bytes) {
      if (!best || attempt.frame.qp < best->frame.qp) {
        if (best) ReleaseReconstruction(*best);
        best = std::move(attempt);
      } else {
        ReleaseReconstruction(attempt);
      }
      return true;
    }
    if (overshoot) ReleaseReconstruction(*overshoot);
    overshoot = std::move(attempt);
    return false;
  };

  const int warm = std::clamp(last_qp_, config_.qp_min, config_.qp_max);
  int lo = 1, hi = 0;  // remaining bisection bracket (empty by default)
  if (attempt_qp(warm)) {
    if (warm > config_.qp_min && attempt_qp(warm - 1)) {
      lo = config_.qp_min;  // warm-1 also fits: keep searching lower
      hi = warm - 2;
    }
    // else: warm confirmed optimal (or already at qp_min) -- done.
  } else {
    lo = warm + 1;
    hi = config_.qp_max;
  }

  while (trials < kMaxTrials && lo <= hi) {
    const int qp = (lo + hi) / 2;
    if (attempt_qp(qp)) {
      hi = qp - 1;
    } else {
      lo = qp + 1;
    }
  }
  // If nothing fit and the bracket ran out before reaching qp_max, make one
  // last attempt at qp_max so the overshoot is the smallest achievable.
  if (!best && overshoot->frame.qp != config_.qp_max) {
    attempt_qp(config_.qp_max);
  }

  if (best && overshoot) ReleaseReconstruction(*overshoot);
  EncodeResult result = best ? std::move(*best) : std::move(*overshoot);
  Metrics().encode_trials.Add(static_cast<std::uint64_t>(trials));
  if (!best) {
    Metrics().overshoots.Add();
    LIVO_LOG(Debug) << "rate-control overshoot: frame "
                    << result.frame.frame_index << " is "
                    << result.frame.SizeBytes() << " bytes after " << trials
                    << " trials, target " << target_bytes;
  }
  model.valid = true;
  model.qp = result.frame.qp;
  model.bytes = result.frame.SizeBytes();
  if (stats != nullptr) {
    stats->chosen_qp = result.frame.qp;
    stats->trials = trials;
    stats->target_bytes = target_bytes;
    stats->actual_bytes = result.frame.SizeBytes();
  }
  Commit(result);
  return result;
}

VideoDecoder::VideoDecoder(const CodecConfig& config, int num_planes)
    : config_(config), num_planes_(num_planes) {}

std::vector<image::Plane16> VideoDecoder::Decode(const EncodedFrame& frame) {
  if (static_cast<int>(frame.planes.size()) != num_planes_) {
    throw std::invalid_argument("plane count mismatch");
  }
  if (!frame.keyframe && !has_reference_) {
    throw std::runtime_error("P-frame received before any keyframe");
  }
  std::vector<image::Plane16> decoded(frame.planes.size());
  util::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : util::SharedPool();
  pool.ParallelFor(num_planes_, config_.max_threads, [&](int i) {
    const auto p = static_cast<std::size_t>(i);
    const image::Plane16* ref = frame.keyframe ? nullptr : &reference_[p];
    decoded[p] = DecodePlane(config_, frame.planes[p].bits, ref, frame.qp);
  });
  reference_ = decoded;
  has_reference_ = true;
  last_index_ = frame.frame_index;
  return decoded;
}

}  // namespace livo::video
