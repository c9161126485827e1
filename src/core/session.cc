#include "core/session.h"

#include <algorithm>
#include <cmath>

#include "metrics/pointssim.h"
#include "obs/obs.h"
#include "runtime/event_loop.h"
#include "runtime/session_actor.h"
#include "util/stats.h"

namespace livo::core {
namespace {

struct SessionMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& frames_sent = reg.GetCounter("session.frames_sent");
  obs::Counter& frames_rendered = reg.GetCounter("session.frames_rendered");
  obs::Counter& frames_stalled = reg.GetCounter("session.frames_stalled");
  obs::Counter& congestion_skips = reg.GetCounter("session.congestion_skips");
  obs::Histogram& transport_ms = reg.GetHistogram("session.transport_ms");
  obs::Histogram& latency_ms = reg.GetHistogram("session.latency_ms");
};

SessionMetrics& Metrics() {
  static SessionMetrics metrics;
  return metrics;
}

}  // namespace

pointcloud::PointCloud GroundTruthCloud(
    const std::vector<image::RgbdFrame>& views,
    const std::vector<geom::RgbdCamera>& cameras, const geom::Frustum& frustum,
    const ReceiverConfig& receiver_config) {
  pointcloud::PointCloud cloud = pointcloud::VoxelDownsample(
      pointcloud::ReconstructFromViews(views, cameras),
      receiver_config.voxel_size_m);
  if (receiver_config.final_cull) {
    cloud = cloud.CulledTo(frustum);
  }
  return cloud;
}

void ChargeSkippedDisplayWork(std::vector<FrameRecord>& frames,
                              int metric_every, double display_ms) {
  const auto every = static_cast<std::uint32_t>(std::max(1, metric_every));
  for (FrameRecord& f : frames) {
    if (f.rendered && f.frame_index % every != 0) f.latency_ms += display_ms;
  }
}

void Aggregate(SessionResult& result, int expected_frames, double duration_ms,
               int metric_every) {
  int rendered = 0;
  double latency_sum = 0.0;
  double geom_sum = 0.0, color_sum = 0.0;
  int metric_slots = 0;

  // Index rendered frames for the stall-aware metric aggregation.
  std::vector<const FrameRecord*> by_index(
      static_cast<std::size_t>(expected_frames), nullptr);
  for (const FrameRecord& f : result.frames) {
    if (f.frame_index < by_index.size()) {
      by_index[f.frame_index] = &f;
    }
    if (f.rendered) {
      ++rendered;
      latency_sum += f.latency_ms;
    }
  }

  // PSSIM over metric slots; a slot whose frame never rendered scores 0
  // ("We use a PSSIM of 0 for frames that experience stalls", §4.3).
  for (int i = 0; i < expected_frames; i += std::max(1, metric_every)) {
    const FrameRecord* f = by_index[static_cast<std::size_t>(i)];
    ++metric_slots;
    if (f != nullptr && f->rendered && f->pssim_geometry >= 0.0) {
      geom_sum += f->pssim_geometry;
      color_sum += f->pssim_color;
    }
  }

  result.stall_rate =
      expected_frames > 0
          ? 1.0 - static_cast<double>(rendered) / expected_frames
          : 0.0;
  result.fps = duration_ms > 0.0 ? rendered * 1000.0 / duration_ms : 0.0;
  result.mean_latency_ms = rendered > 0 ? latency_sum / rendered : 0.0;
  result.mean_pssim_geometry = metric_slots > 0 ? geom_sum / metric_slots : 0.0;
  result.mean_pssim_color = metric_slots > 0 ? color_sum / metric_slots : 0.0;
}

SessionResult RunLiVoSession(const sim::CapturedSequence& sequence,
                             const sim::UserTrace& user_trace,
                             const sim::BandwidthTrace& net_trace,
                             const LiVoConfig& config,
                             const ReplayOptions& options) {
  runtime::EventLoop loop;
  runtime::SessionSpec spec;
  spec.sequence = &sequence;
  spec.user_trace = user_trace;
  spec.net_trace = net_trace;
  spec.config = config;
  spec.options = options;
  runtime::SessionActor actor(loop, std::move(spec));
  actor.Start();
  loop.Run();
  return actor.TakeResult();
}

SessionResult RunLiVoSessionTickReference(const sim::CapturedSequence& sequence,
                                          const sim::UserTrace& user_trace,
                                          const sim::BandwidthTrace& net_trace,
                                          const LiVoConfig& config,
                                          const ReplayOptions& options) {
  obs::AutoInitFromEnv();
  SessionMetrics& session_metrics = Metrics();
  SessionResult result;
  result.scheme = options.scheme_name;
  result.video = sequence.spec.name;
  result.user_trace = sim::StyleName(user_trace.style);
  result.net_trace = net_trace.name;
  result.target_fps = config.fps;

  net::ChannelConfig channel_config = options.channel;
  channel_config.link.bandwidth_scale = options.bandwidth_scale;
  // Warm-start the estimator near the scaled trace mean (real deployments
  // remember prior sessions; the paper's sessions are minutes long, so the
  // ramp-up transient is negligible there).
  channel_config.gcc.initial_bps =
      net_trace.MeanMbps() * options.bandwidth_scale * 1e6 * 0.8;
  sim::BandwidthTrace link_trace =
      net_trace.TimeCompressed(options.trace_time_accel);
  if (options.trace_offset_ms > 0.0 && !link_trace.mbps.empty()) {
    // Rotate the sample ring so the session starts mid-trace.
    const auto shift = static_cast<std::size_t>(
                           options.trace_offset_ms / link_trace.sample_interval_ms) %
                       link_trace.mbps.size();
    std::rotate(link_trace.mbps.begin(),
                link_trace.mbps.begin() + static_cast<std::ptrdiff_t>(shift),
                link_trace.mbps.end());
  }
  net::VideoChannel channel(link_trace, channel_config);

  LiVoSender sender(config, sequence.rig);
  LiVoReceiver receiver(config, options.receiver, sequence.rig);

  const int frames = static_cast<int>(sequence.frames.size());
  const double interval_ms = 1000.0 / config.fps;
  const double duration_ms = frames * interval_ms;
  const double uplink_delay_ms = channel_config.link.propagation_delay_ms;

  std::vector<FrameRecord> records(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    records[static_cast<std::size_t>(f)].frame_index =
        static_cast<std::uint32_t>(f);
    records[static_cast<std::size_t>(f)].capture_time_ms = f * interval_ms;
  }

  metrics::PointSsimConfig pssim_config;
  pssim_config.max_anchors = options.pssim_anchors;
  // PSSIM is the only reader of a cloud, so the receiver builds one only on
  // the metric cadence; the mean display work of those frames is charged to
  // the others at the end.
  const auto metric_every =
      static_cast<std::uint32_t>(std::max(1, options.metric_every));
  util::RunningStats display_ms;

  int next_capture = 0;
  std::size_t pose_feed_index = 0;
  // Run past the nominal end so in-flight frames drain.
  const double horizon_ms = duration_ms + 600.0;

  for (double now = 0.0; now <= horizon_ms; now += 1.0) {
    // Receiver pose feedback reaches the sender after the uplink delay.
    while (pose_feed_index < user_trace.poses.size() &&
           user_trace.poses[pose_feed_index].time_ms + uplink_delay_ms <=
               now) {
      sender.ObservePoseFeedback(user_trace.poses[pose_feed_index]);
      ++pose_feed_index;
    }
    sender.ObserveRtt(channel.SmoothedRttMs());

    // PLI/FIR from the transport.
    if (channel.TakeKeyframeRequest(kColorStream)) {
      sender.RequestKeyframe(kColorStream);
    }
    if (channel.TakeKeyframeRequest(kDepthStream)) {
      sender.RequestKeyframe(kDepthStream);
    }

    // Capture + encode + send at the frame cadence, offset by the sender
    // pipeline delay (§A.1 pipelining).
    while (next_capture < frames &&
           next_capture * interval_ms + options.sender_pipeline_delay_ms <=
               now) {
      const int f = next_capture++;
      // Sender-side congestion drop (WebRTC pacer behaviour): when the
      // link's send queue already holds more than a jitter-buffer's worth
      // of delay, pushing another frame guarantees it misses its playout
      // deadline AND deepens the queue. Skip the frame instead -- the
      // receiver records a stall and the queue drains.
      if (channel.link().CurrentQueueDelayMs(now) >
          options.channel.jitter_buffer_ms) {
        session_metrics.congestion_skips.Add();
        obs::TraceInstant("session.congestion_skip");
        continue;
      }
      SenderOutput out = sender.ProcessFrame(
          sequence.frames[static_cast<std::size_t>(f)],
          static_cast<std::uint32_t>(f), channel.TargetBitrateBps());
      {
        LIVO_SPAN("session.transmit");
        channel.SendFrame(kColorStream, static_cast<std::uint32_t>(f),
                          out.color_keyframe, out.color_frame, now);
        channel.SendFrame(kDepthStream, static_cast<std::uint32_t>(f),
                          out.depth_keyframe, out.depth_frame, now);
      }
      session_metrics.frames_sent.Add();
      FrameRecord& rec = records[static_cast<std::size_t>(f)];
      rec.sender = out.stats;
    }

    channel.Step(now);

    const auto released = channel.PopReady(now);
    if (!released.empty()) {
      const geom::Pose live_pose = sim::SampleTrace(user_trace, now);
      const geom::Frustum live_frustum(live_pose, config.predictor.viewer);
      const auto rendered_frames =
          receiver.OnFrames(released, now, live_frustum, metric_every);
      for (const RenderedFrame& rf : rendered_frames) {
        if (rf.frame_index >= records.size()) continue;
        FrameRecord& rec = records[rf.frame_index];
        rec.rendered = true;
        rec.render_time_ms = rf.render_time_ms;
        rec.latency_ms = rf.render_time_ms - rec.capture_time_ms +
                         rf.decode_ms + rf.reconstruct_ms + rf.render_ms;
        const double transport_ms = rf.render_time_ms - rec.capture_time_ms -
                                    options.sender_pipeline_delay_ms;
        session_metrics.transport_ms.Observe(transport_ms);
        session_metrics.frames_rendered.Add();

        // Objective quality on the metric cadence.
        if (rf.frame_index % metric_every == 0) {
          display_ms.Add(rf.reconstruct_ms + rf.render_ms);
          const pointcloud::PointCloud reference = GroundTruthCloud(
              sequence.frames[rf.frame_index], sequence.rig, live_frustum,
              options.receiver);
          const metrics::PointSsimResult pssim =
              metrics::PointSsim(reference, rf.cloud, pssim_config);
          rec.pssim_geometry = pssim.geometry;
          rec.pssim_color = pssim.color;
        }
      }
    }
  }

  result.frames = std::move(records);
  ChargeSkippedDisplayWork(result.frames, options.metric_every,
                           display_ms.mean());
  Aggregate(result, frames, duration_ms, options.metric_every);
  {
    int rendered = 0;
    for (const FrameRecord& rec : result.frames) {
      if (!rec.rendered) continue;
      ++rendered;
      session_metrics.latency_ms.Observe(rec.latency_ms);
    }
    session_metrics.frames_stalled.Add(
        static_cast<std::uint64_t>(std::max(0, frames - rendered)));
  }
  obs::DumpSessionArtifacts(result.scheme + "_" + result.video);

  // Throughput and utilization at paper scale (the scale factor cancels in
  // utilization; reporting unscaled Mbps matches Table 1's units).
  const double sim_bits = channel.stats().bytes_sent * 8.0;
  const double sim_mbps = sim_bits / (duration_ms / 1000.0) / 1e6;
  result.mean_throughput_mbps = sim_mbps / options.bandwidth_scale;
  result.mean_capacity_mbps = net_trace.MeanMbps();
  result.utilization =
      result.mean_capacity_mbps > 0.0
          ? result.mean_throughput_mbps / result.mean_capacity_mbps
          : 0.0;
  return result;
}

}  // namespace livo::core
