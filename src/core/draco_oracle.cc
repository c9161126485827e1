#include "core/draco_oracle.h"

#include <algorithm>
#include <functional>

#include "util/rng.h"

#include "metrics/pointssim.h"
#include "sim/usertrace.h"

namespace livo::core {

SessionResult RunDracoOracle(const sim::CapturedSequence& sequence,
                             const sim::UserTrace& user_trace,
                             const sim::BandwidthTrace& net_trace,
                             const DracoOracleOptions& options) {
  SessionResult result;
  result.scheme = "Draco-Oracle";
  result.video = sequence.spec.name;
  result.net_trace = net_trace.name;
  result.user_trace = user_trace.style == sim::TraceStyle::kOrbit ? "orbit"
                      : user_trace.style == sim::TraceStyle::kWalkIn
                          ? "walk-in"
                          : "focus";
  result.target_fps = options.fps;

  const double interval_ms = 1000.0 / options.fps;
  // The oracle shows the captured 30 fps sequence at its own frame rate:
  // every capture_stride-th captured frame is a playback frame.
  const int capture_stride = std::max(
      1, static_cast<int>(std::lround(sequence.fps / options.fps)));
  const int playback_frames =
      static_cast<int>(sequence.frames.size()) / capture_stride;
  const double duration_ms = playback_frames * interval_ms;

  metrics::PointSsimConfig pssim_config;
  pssim_config.max_anchors = options.pssim_anchors;

  std::size_t bytes_sent = 0;
  util::Rng jitter_rng(0x5eed ^ (static_cast<std::uint64_t>(user_trace.style) << 8) ^
                       std::hash<std::string>{}(sequence.spec.name));

  for (int pf = 0; pf < playback_frames; ++pf) {
    const double compute_jitter =
        jitter_rng.Uniform(options.jitter_min, options.jitter_max);
    const int cf = pf * capture_stride;
    FrameRecord rec;
    rec.frame_index = static_cast<std::uint32_t>(pf);
    rec.capture_time_ms = pf * interval_ms;

    // Perfect culling: the oracle knows the receiver's frustum at display
    // time exactly.
    const double display_ms = rec.capture_time_ms + interval_ms;
    const geom::Pose pose = sim::SampleTrace(user_trace, display_ms);
    const geom::Frustum frustum(pose, options.viewer);

    pointcloud::PointCloud culled =
        pointcloud::ReconstructFromViews(
            sequence.frames[static_cast<std::size_t>(cf)], sequence.rig)
            .CulledTo(frustum);

    // Oracle bandwidth: the true capacity during this frame interval.
    const double capacity_mbps =
        net_trace.AtMs(rec.capture_time_ms * options.trace_time_accel) *
        options.bandwidth_scale;
    const double budget_bytes = capacity_mbps * 1e6 / 8.0 / options.fps;

    // Offline table lookup: best (qp, level) whose size fits the budget
    // and whose paper-scale encode time fits the frame interval.
    const pccodec::EncodedCloud* best = nullptr;
    std::vector<pccodec::EncodedCloud> table;
    table.reserve(options.quantization_bits.size() *
                  options.compression_levels.size());
    for (int qp : options.quantization_bits) {
      for (int level : options.compression_levels) {
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
                               culled.size(), entry.config, options.point_scale);
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
                               culled.size(), best->config, options.point_scale);
      rec.latency_ms = encode_ms + interval_ms;  // encode + transmission
      bytes_sent += best->data.size();

      if (pf % std::max(1, options.metric_every) == 0) {
        const pointcloud::PointCloud decoded = pointcloud::VoxelDownsample(
            pccodec::DecodeCloud(*best), options.receiver.voxel_size_m);
        const pointcloud::PointCloud reference = GroundTruthCloud(
            sequence.frames[static_cast<std::size_t>(cf)], sequence.rig,
            frustum, options.receiver);
        const metrics::PointSsimResult pssim =
            metrics::PointSsim(reference, decoded, pssim_config);
        rec.pssim_geometry = pssim.geometry;
        rec.pssim_color = pssim.color;
      }
    }
    result.frames.push_back(std::move(rec));
  }

  Aggregate(result, playback_frames, duration_ms, options.metric_every);
  const double sim_mbps = bytes_sent * 8.0 / (duration_ms / 1000.0) / 1e6;
  result.mean_throughput_mbps = sim_mbps / options.bandwidth_scale;
  result.mean_capacity_mbps = net_trace.MeanMbps();
  result.utilization = result.mean_throughput_mbps / result.mean_capacity_mbps;
  return result;
}

}  // namespace livo::core
