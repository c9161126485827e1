#include "core/draco_oracle.h"

#include <algorithm>
#include <array>

#include "sim/usertrace.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace livo::core {
namespace {

constexpr double kFps = 15.0;  // §4.1: evaluated at 15 fps
// Parameter grid profiled offline (subset of Draco's 31 qp x 10 cl that
// spans the useful quality range).
constexpr std::array<int, 6> kQuantizationBits{6, 7, 8, 9, 10, 11};
constexpr std::array<int, 2> kCompressionLevels{3, 7};
// Maps simulator point counts to paper-scale counts for the encode-time
// model (full Panoptic scenes are ~28x bigger than our synthetic ones;
// frustum-culled clouds are what the oracle compresses, hence a smaller
// effective factor).
constexpr double kPointScale = 9.5;
// Per-frame compute-time variance of the testbed encoder (Draco's measured
// times fluctuate with allocator/cache state); the stall decision samples
// a factor uniform in [kJitterMin, kJitterMax].
constexpr double kJitterMin = 0.75;
constexpr double kJitterMax = 1.35;

}  // namespace

SessionResult RunDracoOracle(const sim::CapturedSequence& sequence,
                             const sim::UserTrace& user_trace,
                             const sim::BandwidthTrace& net_trace,
                             double bandwidth_scale) {
  SessionResult result = ResultHeader("Draco-Oracle", sequence, user_trace,
                                      net_trace.name, kFps);

  const double interval_ms = 1000.0 / kFps;
  // The oracle shows the captured 30 fps sequence at its own frame rate:
  // every capture_stride-th captured frame is a playback frame.
  const int capture_stride = std::max(
      1, static_cast<int>(std::lround(sequence.fps / kFps)));
  const int playback_frames =
      static_cast<int>(sequence.frames.size()) / capture_stride;
  const double duration_ms = playback_frames * interval_ms;

  const PssimScorer scorer(sequence, kPssimAnchors);

  std::size_t bytes_sent = 0;
  // Seeded by a fixed hash of the sequence name, so the jitter does not
  // depend on the standard library.
  util::Fnv1a name_hash;
  name_hash.Mix(sequence.spec.name);
  util::Rng jitter_rng(0x5eed ^
                       (static_cast<std::uint64_t>(user_trace.style) << 8) ^
                       name_hash.value());

  for (int pf = 0; pf < playback_frames; ++pf) {
    const double compute_jitter = jitter_rng.Uniform(kJitterMin, kJitterMax);
    const int cf = pf * capture_stride;
    FrameRecord rec;
    rec.frame_index = static_cast<std::uint32_t>(pf);
    rec.capture_time_ms = pf * interval_ms;

    // Perfect culling: the oracle knows the receiver's frustum at display
    // time exactly.
    const double display_ms = rec.capture_time_ms + interval_ms;
    const geom::Pose pose = sim::SampleTrace(user_trace, display_ms);
    const geom::Frustum frustum(pose, geom::FrustumParams{});

    pointcloud::PointCloud culled =
        pointcloud::ReconstructFromViews(
            sequence.frames[static_cast<std::size_t>(cf)], sequence.rig)
            .CulledTo(frustum);

    // Oracle bandwidth: the true capacity during this frame interval.
    const double capacity_mbps =
        net_trace.AtMs(rec.capture_time_ms * ReplayOptions::trace_time_accel) *
        bandwidth_scale;
    const double budget_bytes = capacity_mbps * 1e6 / 8.0 / kFps;

    // Offline table lookup: best (qp, level) whose size fits the budget
    // and whose paper-scale encode time fits the frame interval.
    const pccodec::EncodedCloud* best = nullptr;
    std::vector<pccodec::EncodedCloud> table;
    table.reserve(kQuantizationBits.size() * kCompressionLevels.size());
    for (int qp : kQuantizationBits) {
      for (int level : kCompressionLevels) {
        pccodec::PcCodecConfig cfg;
        cfg.quantization_bits = qp;
        cfg.compression_level = level;
        table.push_back(pccodec::EncodeCloud(culled, cfg));
      }
    }
    for (const auto& entry : table) {
      // Encode time is charged on the *input* cloud: Draco ingests and
      // quantizes every captured point regardless of how many survive
      // deduplication at the chosen qp.
      const double encode_ms =
          compute_jitter * pccodec::ModelEncodeTimeMs(
                               culled.size(), entry.config, kPointScale);
      if (encode_ms > interval_ms) continue;           // too slow: stall risk
      if (entry.data.size() > budget_bytes) continue;  // does not fit
      if (best == nullptr ||
          entry.config.quantization_bits > best->config.quantization_bits ||
          (entry.config.quantization_bits == best->config.quantization_bits &&
           entry.data.size() > best->data.size())) {
        best = &entry;
      }
    }

    if (best == nullptr) {
      // "If no such entry exists, we record a stall."
      rec.rendered = false;
    } else {
      rec.rendered = true;
      rec.render_time_ms = display_ms;
      const double encode_ms =
          compute_jitter * pccodec::ModelEncodeTimeMs(
                               culled.size(), best->config, kPointScale);
      // Transmission takes one frame interval of link serialization
      // budget on top of the encode.
      rec.latency_ms = encode_ms + interval_ms;
      bytes_sent += best->data.size();

      if (pf % kMetricEvery == 0) {
        const pointcloud::PointCloud decoded = pointcloud::VoxelDownsample(
            pccodec::DecodeCloud(*best), kVoxelSizeM);
        scorer.Score(scorer.Reference(static_cast<std::size_t>(cf), frustum),
                     decoded, rec);
      }
    }
    result.frames.push_back(std::move(rec));
  }

  Aggregate(result, playback_frames, duration_ms, kMetricEvery);
  SetThroughput(result, bytes_sent, duration_ms, bandwidth_scale,
                net_trace.MeanMbps());
  return result;
}

}  // namespace livo::core
