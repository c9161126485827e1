#include "core/meshreduce.h"

#include <algorithm>
#include <array>

#include "net/transport.h"
#include "sim/usertrace.h"

namespace livo::core {
namespace {

constexpr double kFps = 15.0;  // MeshReduce runs at 15 fps (Table 2)
// Offline profile candidates: decimation strides and geometry precision.
constexpr std::array<int, 5> kStrides{1, 2, 3, 4, 6};
constexpr std::array<int, 3> kPositionBits{9, 10, 11};
// Safety factor on the average bandwidth: the profile is built offline,
// so it must absorb within-session dips without adapting. The paper
// measures 18-31% utilization (Table 1).
constexpr double kProfileSafety = 0.45;
constexpr int kProfileFrames = 3;        // frames sampled for the profile
constexpr double kTriangleScale = 16.0;  // sim -> paper-scale triangle counts

struct Profile {
  mesh::MesherConfig mesher;
  mesh::MeshCodecConfig codec;
};

// Offline profiling (§4.1): sample a few frames, measure encoded size per
// (stride, position_bits), and pick the highest-quality configuration whose
// rate stays within the safety-scaled average bandwidth.
Profile BuildProfile(const sim::CapturedSequence& sequence,
                     const sim::BandwidthTrace& net_trace,
                     double bandwidth_scale) {
  const double mean_bps = net_trace.MeanMbps() * bandwidth_scale * 1e6;
  const double budget_bytes_per_frame =
      mean_bps * kProfileSafety / 8.0 / kFps;

  Profile best;
  best.mesher.stride = kStrides.back();
  best.codec.position_bits = kPositionBits.front();
  double best_quality = -1.0;

  for (int stride : kStrides) {
    for (int bits : kPositionBits) {
      mesh::MesherConfig mesher;
      mesher.stride = stride;
      mesh::MeshCodecConfig codec;
      codec.position_bits = bits;

      double total_bytes = 0.0;
      const int samples = std::min<int>(kProfileFrames,
                                        static_cast<int>(sequence.frames.size()));
      for (int f = 0; f < samples; ++f) {
        const auto m = mesh::MeshFromViews(
            sequence.frames[static_cast<std::size_t>(f)], sequence.rig, mesher);
        total_bytes += static_cast<double>(
            mesh::EncodeMesh(m, codec).TotalBytes());
      }
      const double mean_bytes = total_bytes / std::max(1, samples);
      if (mean_bytes > budget_bytes_per_frame) continue;

      // Quality proxy: finer stride dominates, then precision.
      const double quality = 100.0 / stride + bits;
      if (quality > best_quality) {
        best_quality = quality;
        best.mesher = mesher;
        best.codec = codec;
      }
    }
  }
  return best;
}

}  // namespace

SessionResult RunMeshReduce(const sim::CapturedSequence& sequence,
                            const sim::UserTrace& user_trace,
                            const sim::BandwidthTrace& net_trace,
                            double bandwidth_scale) {
  SessionResult result = ResultHeader("MeshReduce", sequence, user_trace,
                                      net_trace.name, kFps);

  const Profile profile = BuildProfile(sequence, net_trace, bandwidth_scale);

  net::LinkConfig link;
  link.bandwidth_scale = bandwidth_scale;
  net::ReliableChannel channel(
      net_trace.TimeCompressed(ReplayOptions::trace_time_accel), link);

  const double interval_ms = 1000.0 / kFps;
  const int capture_stride = std::max(
      1, static_cast<int>(std::lround(sequence.fps / kFps)));
  const int playback_frames =
      static_cast<int>(sequence.frames.size()) / capture_stride;
  const double duration_ms = playback_frames * interval_ms;

  const PssimScorer scorer(sequence, kPssimAnchors);

  std::size_t bytes_sent = 0;
  double encoder_free_ms = 0.0;  // when the (all-core) encoder becomes idle
  std::vector<std::pair<int, mesh::EncodedMesh>> in_flight;  // by arrival

  struct Sent {
    int capture_frame;
    mesh::EncodedMesh encoded;
  };
  std::map<std::uint32_t, Sent> sent;

  // Sender loop: encode when the encoder is free (frame rate collapses if
  // encode cost exceeds the interval -- the paper's 12.1 fps mean), then
  // ship over TCP.
  for (int pf = 0; pf < playback_frames; ++pf) {
    const double capture_ms = pf * interval_ms;
    if (capture_ms < encoder_free_ms) {
      continue;  // encoder busy: frame never produced (frame-rate drop)
    }
    const int cf = pf * capture_stride;
    const auto m = mesh::MeshFromViews(
        sequence.frames[static_cast<std::size_t>(cf)], sequence.rig,
        profile.mesher);
    auto encoded = mesh::EncodeMesh(m, profile.codec);
    const double encode_ms = mesh::ModelMeshEncodeTimeMs(
        encoded.triangle_count, kTriangleScale);
    encoder_free_ms = capture_ms + encode_ms;

    bytes_sent += encoded.TotalBytes();
    channel.SendMessage(static_cast<std::uint32_t>(pf), encoded.TotalBytes(),
                        encoder_free_ms);
    sent.emplace(static_cast<std::uint32_t>(pf),
                 Sent{cf, std::move(encoded)});
  }

  // Receiver: event-driven drain. Every record field derives from the
  // delivery's own arrival_time_ms, so jumping straight to each arrival
  // (instead of the old 5 ms polling grid) yields identical records.
  std::vector<FrameRecord> records;
  const double horizon_ms = duration_ms + 3000.0;
  channel.SetDeliverySink([&](const net::ReliableChannel::Delivered&
                                  delivery) {
    const auto it = sent.find(delivery.frame_index);
    if (it == sent.end()) return;
    FrameRecord rec;
    rec.frame_index = delivery.frame_index;
    rec.capture_time_ms = delivery.frame_index * interval_ms;
    rec.rendered = true;
    rec.render_time_ms = delivery.arrival_time_ms;
    rec.latency_ms = delivery.arrival_time_ms - rec.capture_time_ms;

    if (delivery.frame_index % static_cast<std::uint32_t>(kMetricEvery) ==
        0) {
      const geom::Pose pose =
          sim::SampleTrace(user_trace, delivery.arrival_time_ms);
      const geom::Frustum frustum(pose, geom::FrustumParams{});
      const pointcloud::PointCloud reference = scorer.Reference(
          static_cast<std::size_t>(it->second.capture_frame), frustum);
      // "We sample as many points from the rendered mesh as there are in
      // the ground truth point cloud, then compute PointSSIM" (§4.1).
      // Sampling happens on the frustum-culled mesh so sample density
      // matches the frustum-culled reference.
      const mesh::TriangleMesh decoded = mesh::CullMeshToFrustum(
          mesh::DecodeMesh(it->second.encoded), frustum);
      const pointcloud::PointCloud sampled = mesh::SampleMesh(
          decoded, std::max<std::size_t>(reference.size(), 1),
          delivery.frame_index + 1);
      scorer.Score(reference, sampled.CulledTo(frustum), rec);
    }
    records.push_back(std::move(rec));
    sent.erase(it);
  });
  for (double next = channel.NextEventTimeMs();
       next <= horizon_ms; next = channel.NextEventTimeMs()) {
    channel.Step(next);
  }

  result.frames = std::move(records);
  Aggregate(result, playback_frames, duration_ms, kMetricEvery);
  // MeshReduce has no stalls by construction (§4.3: "it uses reliable
  // transmissions... instead of experiencing stalls, it exhibits varying
  // frame rates") -- undelivered frames already lowered `fps` above.
  result.stall_rate = 0.0;
  SetThroughput(result, bytes_sent, duration_ms, bandwidth_scale,
                net_trace.MeanMbps());
  return result;
}

}  // namespace livo::core
