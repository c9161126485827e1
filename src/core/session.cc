#include "core/session.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/obs.h"
#include "runtime/event_loop.h"
#include "runtime/session_actor.h"
#include "runtime/shared_link.h"

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
      pointcloud::ReconstructFromViews(views, cameras), kVoxelSizeM);
  if (receiver_config.final_cull) {
    cloud = cloud.CulledTo(frustum);
  }
  return cloud;
}

PssimScorer::PssimScorer(const sim::CapturedSequence& sequence, int anchors)
    : sequence_(sequence) {
  config_.max_anchors = anchors;
}

pointcloud::PointCloud PssimScorer::Reference(
    std::size_t capture_frame, const geom::Frustum& frustum) const {
  LIVO_SPAN("session.ground_truth");
  return GroundTruthCloud(sequence_.frames[capture_frame], sequence_.rig,
                          frustum, ReceiverConfig{});
}

void PssimScorer::Score(const pointcloud::PointCloud& reference,
                        const pointcloud::PointCloud& cloud,
                        FrameRecord& rec) const {
  LIVO_SPAN("metrics.pssim");
  const metrics::PointSsimResult pssim =
      metrics::PointSsim(reference, cloud, config_);
  rec.pssim_geometry = pssim.geometry;
  rec.pssim_color = pssim.color;
}

SessionResult ResultHeader(std::string scheme,
                           const sim::CapturedSequence& sequence,
                           const sim::UserTrace& user_trace,
                           std::string net_trace, double target_fps) {
  SessionResult result;
  result.scheme = std::move(scheme);
  result.video = sequence.spec.name;
  result.user_trace = sim::StyleName(user_trace.style);
  result.net_trace = std::move(net_trace);
  result.target_fps = target_fps;
  return result;
}

void SetThroughput(SessionResult& result, std::size_t bytes_sent,
                   double duration_ms, double bandwidth_scale,
                   double capacity_mbps) {
  const double sim_mbps = bytes_sent * 8.0 / (duration_ms / 1000.0) / 1e6;
  result.mean_throughput_mbps =
      bandwidth_scale > 0.0 ? sim_mbps / bandwidth_scale : 0.0;
  result.mean_capacity_mbps = capacity_mbps;
  result.utilization =
      capacity_mbps > 0.0 ? result.mean_throughput_mbps / capacity_mbps : 0.0;
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

SessionRecorder::SessionRecorder(const sim::CapturedSequence& sequence,
                                 const sim::UserTrace& user_trace,
                                 const LiVoConfig& config,
                                 const ReplayOptions& options,
                                 std::string net_trace)
    : user_trace_(user_trace),
      viewer_(config.predictor.viewer),
      metric_every_(options.metric_every),
      frames_(static_cast<int>(sequence.frames.size())),
      interval_ms_(1000.0 / config.fps),
      duration_ms_(frames_ * interval_ms_),
      scorer_(sequence, options.pssim_anchors),
      result_(ResultHeader(options.scheme_name, sequence, user_trace,
                           std::move(net_trace), config.fps)),
      records_(static_cast<std::size_t>(frames_)) {
  obs::AutoInitFromEnv();
  for (int f = 0; f < frames_; ++f) {
    records_[static_cast<std::size_t>(f)].frame_index =
        static_cast<std::uint32_t>(f);
    records_[static_cast<std::size_t>(f)].capture_time_ms = f * interval_ms_;
  }
}

void SessionRecorder::RecordSkip() {
  Metrics().congestion_skips.Add();
  obs::TraceInstant("session.congestion_skip");
}

void SessionRecorder::RecordSent(int f, const SenderFrameStats& stats) {
  Metrics().frames_sent.Add();
  records_[static_cast<std::size_t>(f)].sender = stats;
}

void SessionRecorder::OnReleased(LiVoReceiver& receiver,
                                 const std::vector<net::ReceivedFrame>& frames,
                                 double now_ms) {
  SessionMetrics& session_metrics = Metrics();
  const geom::Frustum live_frustum(sim::SampleTrace(user_trace_, now_ms),
                                   viewer_);
  const auto metric_every =
      static_cast<std::uint32_t>(std::max(1, metric_every_));
  const auto rendered_frames =
      receiver.OnFrames(frames, now_ms, live_frustum, metric_every);
  for (const RenderedFrame& rf : rendered_frames) {
    if (rf.frame_index >= records_.size()) continue;
    FrameRecord& rec = records_[rf.frame_index];
    rec.rendered = true;
    rec.render_time_ms = rf.render_time_ms;
    rec.latency_ms = rf.render_time_ms - rec.capture_time_ms + rf.decode_ms +
                     rf.reconstruct_ms + rf.render_ms;
    const double transport_ms = rf.render_time_ms - rec.capture_time_ms -
                                kSenderPipelineDelayMs;
    session_metrics.transport_ms.Observe(transport_ms);
    session_metrics.frames_rendered.Add();

    // Objective quality on the metric cadence.
    if (rf.frame_index % metric_every == 0) {
      display_ms_.Add(rf.reconstruct_ms + rf.render_ms);
      scorer_.Score(scorer_.Reference(rf.frame_index, live_frustum), rf.cloud,
                    rec);
    }
  }
}

SessionResult SessionRecorder::Close(std::size_t bytes_sent,
                                     double capacity_mbps,
                                     double bandwidth_scale) {
  result_.frames = std::move(records_);
  ChargeSkippedDisplayWork(result_.frames, metric_every_, display_ms_.mean());
  Aggregate(result_, frames_, duration_ms_, metric_every_);
  int rendered = 0;
  for (const FrameRecord& rec : result_.frames) {
    if (!rec.rendered) continue;
    ++rendered;
    Metrics().latency_ms.Observe(rec.latency_ms);
  }
  Metrics().frames_stalled.Add(
      static_cast<std::uint64_t>(std::max(0, frames_ - rendered)));
  obs::DumpSessionArtifacts(result_.scheme + "_" + result_.video);
  SetThroughput(result_, bytes_sent, duration_ms_, bandwidth_scale,
                capacity_mbps);
  LIVO_LOG(Debug) << "session " << result_.scheme << "/" << result_.video
                  << " finished: fps " << result_.fps << ", stall "
                  << result_.stall_rate;
  return std::move(result_);
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
  SessionRecorder session(sequence, user_trace, config, options,
                          net_trace.name);
  const runtime::ReplayLink link{.trace = &net_trace,
                                 .bandwidth_scale = options.bandwidth_scale,
                                 .accel = ReplayOptions::trace_time_accel,
                                 .offset_ms = options.trace_offset_ms};
  const std::unique_ptr<net::VideoChannel> owned_channel =
      link.MakeChannel(options.channel);
  net::VideoChannel& channel = *owned_channel;

  LiVoSender sender(config, sequence.rig);
  LiVoReceiver receiver(config, ReceiverConfig{}, sequence.rig);
  // PLI/FIR from the transport, raised inside Step.
  channel.SetKeyframeRequestSink([&sender](std::uint32_t stream_id, double) {
    sender.RequestKeyframe(stream_id);
  });

  const int frames = session.frames();
  const double interval_ms = session.interval_ms();
  const double uplink_delay_ms = options.channel.link.propagation_delay_ms;

  int next_capture = 0;
  std::size_t pose_feed_index = 0;
  for (double now = 0.0; now <= session.horizon_ms(); now += 1.0) {
    // Receiver pose feedback reaches the sender after the uplink delay.
    while (pose_feed_index < user_trace.poses.size() &&
           user_trace.poses[pose_feed_index].time_ms + uplink_delay_ms <=
               now) {
      sender.ObservePoseFeedback(user_trace.poses[pose_feed_index]);
      ++pose_feed_index;
    }
    sender.ObserveRtt(channel.SmoothedRttMs());

    // Capture + encode + send at the frame cadence, offset by the sender
    // pipeline delay (§A.1 pipelining).
    while (next_capture < frames &&
           next_capture * interval_ms + kSenderPipelineDelayMs <= now) {
      const int f = next_capture++;
      // Sender-side congestion drop (WebRTC pacer behaviour): when the
      // link's send queue already holds more than a jitter-buffer's worth
      // of delay, pushing another frame guarantees it misses its playout
      // deadline AND deepens the queue. Skip the frame instead -- the
      // receiver records a stall and the queue drains.
      if (channel.link().CurrentQueueDelayMs(now) >
          options.channel.jitter_buffer_ms) {
        session.RecordSkip();
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
      session.RecordSent(f, out.stats);
    }

    channel.Step(now);

    const auto released = channel.PopReady(now);
    if (!released.empty()) session.OnReleased(receiver, released, now);
  }

  return session.Close(channel.stats().bytes_sent, net_trace.MeanMbps(),
                       options.bandwidth_scale);
}

}  // namespace livo::core
