#include "conference/participant.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "conference/sfu.h"
#include "core/session.h"
#include "fec/fec.h"
#include "obs/obs.h"

namespace livo::conference {

ParticipantActor::ParticipantActor(runtime::EventLoop& loop, int index,
                                   const std::vector<ParticipantSpec>& specs,
                                   const ConferenceOptions& options,
                                   std::unique_ptr<net::VideoChannel> uplink,
                                   std::unique_ptr<net::VideoChannel> downlink,
                                   double horizon_ms)
    : loop_(loop),
      index_(index),
      spec_(specs[static_cast<std::size_t>(index)]),
      options_(options),
      uplink_(std::move(uplink)),
      downlink_(std::move(downlink)),
      horizon_ms_(horizon_ms) {
  // Sender-side culling needs the receiving viewer's pose feedback; with
  // more than one subscriber there is no single frustum to cull against,
  // so the origin sends the full scene and per-subscriber selection moves
  // into the SFU. (Union-frustum culling is a ROADMAP open item.)
  if (specs.size() > 2) spec_.config.enable_culling = false;

  // Simulcast ladder: every participant of a >2-party conference encodes
  // the conference's ladder (encode-once/serve-many; see topology.h).
  layers_ = EffectiveLadderLayers(options, static_cast<int>(specs.size()));
  spec_.config.simulcast_layers = layers_;

  // Per-participant instrument prefix (spec_ is this actor's own copy).
  spec_.config.obs_label = "participant" + std::to_string(index_) + ".sender";
  sender_ = std::make_unique<core::LiVoSender>(spec_.config,
                                               spec_.sequence->rig);
  frames_ = static_cast<int>(spec_.sequence->frames.size());
  interval_ms_ = 1000.0 / spec_.config.fps;
  duration_ms_ = frames_ * interval_ms_;
  sent_stats_.assign(static_cast<std::size_t>(frames_),
                     core::SenderFrameStats{});
  sent_.assign(static_cast<std::size_t>(frames_), false);

  result_.index = index_;
  result_.video = spec_.sequence->spec.name;
  result_.user_trace = sim::StyleName(spec_.user_trace.style);
  result_.streams.resize(specs.size() - 1);
  last_layer_.assign(specs.size() - 1, -1);
  receivers_.reserve((specs.size() - 1) * static_cast<std::size_t>(layers_));
  for (int slot = 0; slot < static_cast<int>(specs.size()) - 1; ++slot) {
    const ParticipantSpec& remote =
        specs[static_cast<std::size_t>(OriginOfSlot(index_, slot))];
    for (int q = 0; q < layers_; ++q) {
      const bool low = layers_ > 1 && q == 0;
      receivers_.push_back(std::make_unique<core::LiVoReceiver>(
          remote.config, core::ReceiverConfig{}, remote.sequence->rig,
          low ? 2 : 1));
    }
    RemoteStreamResult& stream =
        result_.streams[static_cast<std::size_t>(slot)];
    stream.origin = OriginOfSlot(index_, slot);
    stream.forwarded_by_layer.assign(static_cast<std::size_t>(layers_), 0);
    const int remote_frames = static_cast<int>(remote.sequence->frames.size());
    const double remote_interval = 1000.0 / remote.config.fps;
    stream.frames.assign(static_cast<std::size_t>(remote_frames),
                         StreamFrameRecord{});
    delivered_.emplace_back(static_cast<std::size_t>(remote_frames), false);
    for (int f = 0; f < remote_frames; ++f) {
      stream.frames[static_cast<std::size_t>(f)].frame_index =
          static_cast<std::uint32_t>(f);
      stream.frames[static_cast<std::size_t>(f)].capture_time_ms =
          f * remote_interval;
    }
  }

  downlink_->SetFrameSink(
      [this](std::vector<net::ReceivedFrame> frames, double now_ms) {
        OnDownlinkFrames(std::move(frames), now_ms);
      });
  if (options_.fec.enabled) {
    // Downlink loss-resilience hops: this participant is the receiving
    // end, so the subscriber field is its roster index and `layer`
    // carries the (slot, ladder layer, lane)-encoding stream id.
    downlink_->SetFecEventHook(
        [this](net::VideoChannel::FecEvent event, std::uint32_t stream_id,
               std::uint32_t frame_index, double now_ms, std::size_t bytes) {
          obs::FrameLedger& ledger = obs::FrameLedger::Get();
          if (!ledger.enabled()) return;
          ledger.Record(
              OriginOfSlot(index_, SlotOfDownlinkStream(layers_, stream_id)),
              static_cast<std::int32_t>(frame_index), index_,
              FecLedgerHop(event), now_ms, bytes, false,
              static_cast<std::int32_t>(stream_id));
        });
  }
}

void ParticipantActor::Start() {
  loop_.ScheduleAt(0.0, [this](double now_ms) { OnWake(now_ms); });
}

void ParticipantActor::RelayKeyframeRequest() {
  sender_->RequestKeyframe(core::kColorStream);
  sender_->RequestKeyframe(core::kDepthStream);
}

void ParticipantActor::ObserveRemotePose(const geom::TimedPose& pose) {
  sender_->ObservePoseFeedback(pose);
}

void ParticipantActor::NotePairForwarded(int slot, std::uint32_t frame_index,
                                         double now_ms, std::size_t bytes,
                                         int layer) {
  RemoteStreamResult& stream = result_.streams[static_cast<std::size_t>(slot)];
  if (frame_index >= stream.frames.size()) return;
  StreamFrameRecord& rec = stream.frames[frame_index];
  rec.forwarded = true;
  rec.forward_time_ms = now_ms;
  rec.bytes = bytes;
  rec.layer = layer;
  ++stream.pairs_forwarded;
  if (layer >= 0 &&
      static_cast<std::size_t>(layer) < stream.forwarded_by_layer.size()) {
    ++stream.forwarded_by_layer[static_cast<std::size_t>(layer)];
  }
  int& last = last_layer_[static_cast<std::size_t>(slot)];
  if (last >= 0 && layer != last) ++stream.layer_switches;
  last = layer;
}

const core::SenderFrameStats* ParticipantActor::StatsFor(
    std::uint32_t frame_index) const {
  if (frame_index >= sent_stats_.size() || !sent_[frame_index]) return nullptr;
  return &sent_stats_[frame_index];
}

void ParticipantActor::OnWake(double now_ms) {
  // Flush deliveries and pose feeds due at this instant before capturing,
  // so the sender sees the same predictor/estimator state it would in a
  // point-to-point session whose driver runs the network first.
  if (sfu_ != nullptr) sfu_->OnNetworkActivity(now_ms);

  // Replay the per-millisecond RTT observation of the reference driver
  // (constant between channel feedback events, so batching is exact).
  const double rtt_ms =
      uplink_->SmoothedRttMs() +
      (sfu_ != nullptr ? sfu_->MaxSubscriberDownlinkRttMs(index_) : 0.0);
  const auto elapsed_ticks =
      static_cast<long>(std::llround(now_ms - last_tick_ms_));
  for (long t = 0; t < elapsed_ticks; ++t) sender_->ObserveRtt(rtt_ms);

  if (options_.fec.enabled) {
    // Uplink FEC: the SFU must reassemble every ladder layer (unlike a
    // viewer it cannot look away from a stream), so utility carries no
    // visibility term — only the split controller's depth-vs-color
    // weight, mirroring the downlink tilt.
    const double loss = uplink_->LossEstimate();
    const double split = sender_->splitter().split();
    const double r_color = fec::ChooseRedundancy(
        options_.fec, loss, std::clamp(2.0 * (1.0 - split), 0.0, 1.0));
    const double r_depth = fec::ChooseRedundancy(
        options_.fec, loss, std::clamp(2.0 * split, 0.0, 1.0));
    for (int q = 0; q < layers_; ++q) {
      uplink_->SetStreamRedundancy(core::LadderColorStream(layers_, q),
                                   r_color);
      uplink_->SetStreamRedundancy(core::LadderDepthStream(layers_, q),
                                   r_depth);
    }
    // Reserve the worst-case parity share out of the GCC target so media
    // plus parity together respect the congestion controller's estimate.
    sender_->SetParityOverhead(fec::ChooseRedundancy(options_.fec, loss, 1.0));
  }

  bool sent_any = false;
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  const bool ledger_on = ledger.enabled();
  while (next_capture_ < frames_ &&
         next_capture_ * interval_ms_ + core::kSenderPipelineDelayMs <=
             now_ms) {
    const int f = next_capture_++;
    if (ledger_on) {
      ledger.Record(index_, f, -1, obs::LedgerHop::kCaptured, now_ms);
    }
    // Same sender-side congestion valve as SessionActor, against the
    // uplink's queue: encoding into an already-backlogged access link
    // only deepens the standing queue the SFU is waiting behind.
    if (uplink_->link().CurrentQueueDelayMs(now_ms) >
        options_.uplink_channel.jitter_buffer_ms) {
      ++result_.congestion_skips;
      if (ledger_on) {
        ledger.Record(index_, f, -1, obs::LedgerHop::kSkippedCongestion,
                      now_ms);
      }
      obs::TraceInstant("conference.congestion_skip");
      continue;
    }
    // Encode no faster than the best-provisioned subscriber can receive:
    // bytes beyond every downlink's allocation are guaranteed SFU drops.
    // The uplink constraint pays for the whole ladder, so only it is
    // divided by the ladder overhead — the subscriber-side allocation
    // bounds the (single) layer that actually goes down a downlink.
    double target_bps =
        uplink_->TargetBitrateBps() / core::LadderOverheadFactor(layers_);
    if (sfu_ != nullptr) {
      target_bps = std::min(target_bps, sfu_->OriginBudgetBps(index_));
    }
    core::SenderOutput out = sender_->ProcessFrame(
        spec_.sequence->frames[static_cast<std::size_t>(f)],
        static_cast<std::uint32_t>(f), target_bps);
    {
      LIVO_SPAN("conference.uplink_transmit");
      // Lower layers first (cheapest first): they clear the uplink before
      // the top layer does, so when the top pair completes at the SFU the
      // whole surviving ladder is already available to choose from.
      for (int q = 0; q < layers_ - 1; ++q) {
        const core::SenderLayerOutput& lower =
            out.lower_layers[static_cast<std::size_t>(q)];
        uplink_->SendFrame(core::LadderColorStream(layers_, q),
                           static_cast<std::uint32_t>(f),
                           lower.color_keyframe, lower.color_frame, now_ms);
        uplink_->SendFrame(core::LadderDepthStream(layers_, q),
                           static_cast<std::uint32_t>(f),
                           lower.depth_keyframe, lower.depth_frame, now_ms);
      }
      uplink_->SendFrame(core::kColorStream, static_cast<std::uint32_t>(f),
                         out.color_keyframe, out.color_frame, now_ms);
      uplink_->SendFrame(core::kDepthStream, static_cast<std::uint32_t>(f),
                         out.depth_keyframe, out.depth_frame, now_ms);
    }
    if (ledger_on) {
      ledger.Record(index_, f, -1, obs::LedgerHop::kEncoded, now_ms,
                    out.color_frame->size() + out.depth_frame->size(),
                    out.color_keyframe && out.depth_keyframe);
    }
    sent_stats_[static_cast<std::size_t>(f)] = out.stats;
    sent_[static_cast<std::size_t>(f)] = true;
    ++result_.frames_sent;
    split_sum_ += out.stats.split;
    target_sum_ += out.stats.target_bps;
    sent_any = true;
  }

  // Let the SFU pick up the packets just queued (and retime its wake).
  if (sent_any && sfu_ != nullptr) sfu_->OnNetworkActivity(now_ms);

  last_tick_ms_ = now_ms;
  ScheduleNext(now_ms);
}

void ParticipantActor::OnDownlinkFrames(std::vector<net::ReceivedFrame> frames,
                                        double now_ms) {
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  const bool ledger_on = ledger.enabled();
  // Regroup the (slot, layer)-addressed downlink streams into per-(remote,
  // layer) batches with canonical stream ids for the matching receiver.
  for (std::size_t r = 0; r < receivers_.size(); ++r) {
    const std::size_t slot = r / static_cast<std::size_t>(layers_);
    const int q = static_cast<int>(r % static_cast<std::size_t>(layers_));
    const std::uint32_t color_id =
        DownlinkStream(layers_, static_cast<int>(slot), q, false);
    const std::uint32_t depth_id =
        DownlinkStream(layers_, static_cast<int>(slot), q, true);
    std::vector<net::ReceivedFrame> batch;
    for (const net::ReceivedFrame& frame : frames) {
      if (frame.stream_id != color_id && frame.stream_id != depth_id) continue;
      net::ReceivedFrame remapped = frame;
      remapped.stream_id =
          frame.stream_id == color_id ? core::kColorStream : core::kDepthStream;
      if (ledger_on && frame.frame_index < delivered_[slot].size() &&
          !delivered_[slot][frame.frame_index]) {
        delivered_[slot][frame.frame_index] = true;
        ledger.Record(OriginOfSlot(index_, static_cast<int>(slot)),
                      static_cast<std::int32_t>(frame.frame_index), index_,
                      obs::LedgerHop::kDelivered, now_ms,
                      frame.data ? frame.data->size() : 0, frame.keyframe);
      }
      batch.push_back(std::move(remapped));
    }
    if (batch.empty()) continue;
    // Only which frames rendered and when is kept, so the receiver decodes
    // and checks the marker but builds no point cloud.
    const auto rendered = receivers_[r]->OnFrames(batch, now_ms);
    RemoteStreamResult& stream = result_.streams[slot];
    for (const core::RenderedFrame& rf : rendered) {
      if (rf.frame_index >= stream.frames.size()) continue;
      StreamFrameRecord& rec = stream.frames[rf.frame_index];
      rec.rendered = true;
      rec.marker_verified = rf.marker_verified;
      rec.render_time_ms = rf.render_time_ms;
      // Virtual-time latency only: the wall-clock decode/reconstruct
      // costs vary run to run and would break bitwise reproducibility.
      rec.latency_ms = rf.render_time_ms - rec.capture_time_ms;
      ++stream.pairs_rendered;
      if (ledger_on) {
        ledger.Record(OriginOfSlot(index_, static_cast<int>(slot)),
                      static_cast<std::int32_t>(rf.frame_index), index_,
                      obs::LedgerHop::kDisplayed, rf.render_time_ms,
                      rec.bytes);
      }
    }
  }
}

void ParticipantActor::ScheduleNext(double now_ms) {
  if (next_capture_ >= frames_) return;  // the SFU drives everything else
  double next =
      std::ceil(next_capture_ * interval_ms_ + core::kSenderPipelineDelayMs);
  next = std::max(next, now_ms + 1.0);
  if (next <= horizon_ms_) {
    loop_.ScheduleAt(next, [this](double t) { OnWake(t); });
  }
}

ParticipantResult ParticipantActor::TakeResult() {
  result_.bytes_sent = uplink_->stats().bytes_sent;
  if (result_.frames_sent > 0) {
    result_.mean_split = split_sum_ / result_.frames_sent;
    result_.mean_target_bps = target_sum_ / result_.frames_sent;
  }
  // Loss-resilience harvest. Channel-level totals plus the per-stream
  // receiver counters folded back to (subscriber, origin) scope: one
  // remote stream spans 2 * layers channel streams (lane x ladder layer).
  result_.uplink_parity_bytes = uplink_->stats().parity_bytes_sent;
  result_.downlink_parity_bytes = downlink_->stats().parity_bytes_sent;
  result_.downlink_bytes_sent = downlink_->stats().bytes_sent;
  result_.fragments_recovered = downlink_->stats().fragments_recovered;
  result_.repairs_scheduled = downlink_->stats().repairs_scheduled;
  result_.repairs_abandoned = downlink_->stats().repairs_abandoned;
  result_.nacks_sent = downlink_->stats().nacks_sent;
  for (std::uint32_t id = 0; id < 2u * static_cast<std::uint32_t>(layers_);
       ++id) {
    result_.uplink_keyframe_requests += uplink_->StreamKeyframeRequests(id);
    result_.uplink_nacks += uplink_->StreamNacks(id);
    result_.uplink_fragments_recovered += uplink_->StreamRecovered(id);
  }
  for (std::size_t slot = 0; slot < result_.streams.size(); ++slot) {
    RemoteStreamResult& stream = result_.streams[slot];
    for (int q = 0; q < layers_; ++q) {
      for (const bool depth : {false, true}) {
        const std::uint32_t id =
            DownlinkStream(layers_, static_cast<int>(slot), q, depth);
        stream.keyframe_requests += downlink_->StreamKeyframeRequests(id);
        stream.nacks += downlink_->StreamNacks(id);
        stream.fragments_recovered += downlink_->StreamRecovered(id);
      }
    }
  }
  for (RemoteStreamResult& stream : result_.streams) {
    const std::size_t expected = stream.frames.size();
    double latency_sum = 0.0;
    std::size_t rendered = 0;
    for (const StreamFrameRecord& rec : stream.frames) {
      if (rec.rendered) {
        ++rendered;
        latency_sum += rec.latency_ms;
      }
    }
    const double remote_interval =
        expected > 1 ? stream.frames[1].capture_time_ms -
                           stream.frames[0].capture_time_ms
                     : interval_ms_;
    const double duration = expected * remote_interval;
    stream.fps = duration > 0.0 ? rendered * 1000.0 / duration : 0.0;
    stream.stall_rate =
        expected > 0
            ? 1.0 - static_cast<double>(rendered) / static_cast<double>(expected)
            : 0.0;
    // Delivered-only mean (survivor-biased; see the field's comment).
    stream.mean_latency_ms = rendered > 0 ? latency_sum / rendered : 0.0;
    // Stall-aware mean: every expected frame is charged the wait from its
    // capture to the earliest render at-or-after its index (a dropped
    // frame's slot stays stale until a successor renders). The backward
    // suffix-min makes that earliest-later-render lookup O(n); frames
    // nothing ever covered are charged to the run horizon.
    if (expected > 0) {
      double stall_sum = 0.0;
      double earliest_later_render = horizon_ms_;
      for (std::size_t f = expected; f-- > 0;) {
        const StreamFrameRecord& rec = stream.frames[f];
        if (rec.rendered) {
          earliest_later_render =
              std::min(earliest_later_render, rec.render_time_ms);
        }
        stall_sum +=
            std::max(0.0, earliest_later_render - rec.capture_time_ms);
      }
      stream.stall_aware_latency_ms =
          stall_sum / static_cast<double>(expected);
    }
  }
  return std::move(result_);
}

}  // namespace livo::conference
