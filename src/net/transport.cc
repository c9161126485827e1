#include "net/transport.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fec/fec.h"
#include "obs/obs.h"

namespace livo::net {
namespace {

struct TransportMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& packets_sent = reg.GetCounter("net.packets_sent");
  obs::Counter& bytes_sent = reg.GetCounter("net.bytes_sent");
  obs::Counter& frames_sent = reg.GetCounter("net.frames_sent");
  obs::Counter& frames_delivered = reg.GetCounter("net.frames_delivered");
  obs::Counter& frames_lost = reg.GetCounter("net.frames_lost");
  obs::Counter& packets_retransmitted =
      reg.GetCounter("net.packets_retransmitted");
  obs::Counter& keyframe_requests = reg.GetCounter("net.keyframe_requests");
  obs::Counter& feedback_reports = reg.GetCounter("net.feedback_reports");
  obs::Counter& parity_packets = reg.GetCounter("net.parity_packets_sent");
  obs::Counter& fragments_recovered =
      reg.GetCounter("net.fragments_recovered");
  obs::Counter& repairs_abandoned = reg.GetCounter("net.repairs_abandoned");
  obs::Gauge& estimated_bps = reg.GetGauge("net.estimated_bps");
  obs::Gauge& loss_fraction = reg.GetGauge("net.loss_fraction");
  obs::Gauge& rtt_ms = reg.GetGauge("net.rtt_ms");
  obs::Histogram& frame_transit_ms = reg.GetHistogram("net.frame_transit_ms");
};

TransportMetrics& Metrics() {
  static TransportMetrics metrics;
  return metrics;
}

// Smallest double strictly greater than `t`: used to express "first
// instant at which a strict '>' deadline holds" as an absolute time.
double StrictlyAfter(double t) {
  return std::nextafter(t, std::numeric_limits<double>::infinity());
}

obs::TimeSeries* LabeledSeries(const std::string& label, const char* suffix) {
  if (label.empty()) return nullptr;
  return &obs::Registry::Get().GetTimeSeries(label + suffix);
}

}  // namespace

VideoChannel::VideoChannel(sim::BandwidthTrace trace,
                           const ChannelConfig& config)
    : config_(config),
      link_(std::make_shared<LinkEmulator>(std::move(trace), config.link)),
      queue_delay_series_(LabeledSeries(config.obs_label, ".queue_delay_ms")),
      delivered_series_(LabeledSeries(config.obs_label, ".delivered_bytes")),
      estimator_(config.gcc) {}

VideoChannel::VideoChannel(std::shared_ptr<LinkEmulator> link,
                           const ChannelConfig& config, std::uint32_t flow_id)
    : config_(config), link_(std::move(link)), owns_link_(false),
      flow_id_(flow_id),
      queue_delay_series_(LabeledSeries(config.obs_label, ".queue_delay_ms")),
      delivered_series_(LabeledSeries(config.obs_label, ".delivered_bytes")),
      estimator_(config.gcc) {}

void VideoChannel::SendFrame(
    std::uint32_t stream_id, std::uint32_t frame_index, bool keyframe,
    std::shared_ptr<const std::vector<std::uint8_t>> data, double now_ms) {
  TransportMetrics& metrics = Metrics();
  const std::size_t size = data->size();
  const auto fragments = static_cast<std::uint16_t>(
      std::max<std::size_t>(1, (size + kMtuBytes - 1) / kMtuBytes));
  for (std::uint16_t frag = 0; frag < fragments; ++frag) {
    Packet p;
    p.sequence = next_sequence_++;
    p.flow_id = flow_id_;
    p.stream_id = stream_id;
    p.frame_index = frame_index;
    p.fragment = frag;
    p.fragment_count = fragments;
    p.keyframe = keyframe;
    p.payload_bytes = std::min(kMtuBytes, size - frag * kMtuBytes);
    stats_.bytes_sent += p.WireBytes();
    metrics.bytes_sent.Add(p.WireBytes());
    metrics.packets_sent.Add();
    sent_store_[p.sequence] = SentPacketRecord{p, data};
    link_->Send(p, now_ms);
  }
  if (config_.enable_fec) {
    // XOR interleaved parity over the frame's fragments (src/fec). Parity
    // packets take real sequence numbers so feedback gap accounting and
    // the GCC loop see them like any other traffic; only their payload
    // *sizes* travel through the emulator — only the fec unit tests
    // exercise the XOR byte algebra.
    int parity =
        fec::ParityCount(static_cast<int>(fragments), RedundancyFor(stream_id));
    // The redundancy rate is a wire-byte guarantee over the channel's
    // lifetime, not just a per-frame packet-count target: ceil-rounding on
    // few-fragment frames (one parity packet on a one-fragment frame is
    // 100% overhead) could otherwise ship far more parity than the policy
    // asked for. Walk the count down until cumulative parity wire bytes
    // stay under rate x cumulative media wire bytes — small frames then
    // get their parity packet whenever the budget the larger frames left
    // behind affords it, deterministically. The stream's policy rate (not
    // the flat cap) prices the budget so overhead tracks the measured
    // loss instead of saturating the cap.
    std::vector<std::size_t> sizes;
    const double parity_budget =
        RedundancyFor(stream_id) *
        static_cast<double>(stats_.bytes_sent - stats_.parity_bytes_sent);
    while (parity > 0) {
      sizes = fec::ParityPayloadSizes(size, kMtuBytes, parity);
      std::size_t wire = static_cast<std::size_t>(parity) * kPacketOverhead;
      for (const std::size_t s : sizes) wire += s;
      if (static_cast<double>(stats_.parity_bytes_sent + wire) <=
          parity_budget) {
        break;
      }
      --parity;
    }
    if (parity > 0) {
      for (int j = 0; j < parity; ++j) {
        Packet p;
        p.sequence = next_sequence_++;
        p.flow_id = flow_id_;
        p.stream_id = stream_id;
        p.frame_index = frame_index;
        p.fragment = static_cast<std::uint16_t>(j);
        p.fragment_count = fragments;
        p.keyframe = keyframe;
        p.parity = true;
        p.parity_count = static_cast<std::uint16_t>(parity);
        p.payload_bytes = sizes[static_cast<std::size_t>(j)];
        stats_.bytes_sent += p.WireBytes();
        stats_.parity_bytes_sent += p.WireBytes();
        ++stats_.parity_packets_sent;
        metrics.bytes_sent.Add(p.WireBytes());
        metrics.packets_sent.Add();
        metrics.parity_packets.Add();
        sent_store_[p.sequence] = SentPacketRecord{p, data};
        link_->Send(p, now_ms);
      }
    }
  }
  ++stats_.frames_sent;
  metrics.frames_sent.Add();

  // Bound the retransmission store: anything older than a jitter window is
  // past its playout deadline and useless to retransmit.
  while (sent_store_.size() > 4096) sent_store_.erase(sent_store_.begin());
}

void VideoChannel::DeliverPacket(
    const Packet& packet,
    const std::shared_ptr<const std::vector<std::uint8_t>>& data,
    double now_ms) {
  const FrameKey key{packet.stream_id, packet.frame_index};

  // Ignore fragments of frames already released or declared lost.
  const auto released = last_released_.find(packet.stream_id);
  if (released != last_released_.end() &&
      packet.frame_index <= released->second) {
    return;
  }

  PendingFrame& frame = pending_[key];
  if (frame.have.empty()) {
    frame.stream_id = packet.stream_id;
    frame.frame_index = packet.frame_index;
    frame.keyframe = packet.keyframe;
    frame.have.assign(packet.fragment_count, false);
    frame.send_time_ms = packet.send_time_ms;
  }
  if (!frame.data && data) frame.data = data;
  if (packet.parity) {
    if (frame.parity_have.empty() && packet.parity_count > 0) {
      frame.parity_count = packet.parity_count;
      frame.parity_have.assign(packet.parity_count, false);
    }
    if (packet.fragment < frame.parity_have.size() &&
        !frame.parity_have[packet.fragment]) {
      frame.parity_have[packet.fragment] = true;
      ++fb_received_unique_;
      if (fec_hook_) {
        fec_hook_(FecEvent::kParityIngested, packet.stream_id,
                  packet.frame_index, now_ms, packet.payload_bytes);
      }
    }
  } else if (packet.fragment < frame.have.size() &&
             !frame.have[packet.fragment]) {
    frame.have[packet.fragment] = true;
    ++frame.received;
    ++fb_received_unique_;
  }
  frame.last_arrival_ms = now_ms;
  frame.send_time_ms = std::min(frame.send_time_ms, packet.send_time_ms);

  // Feedback accounting.
  fb_bytes_ += packet.WireBytes();
  ++fb_packets_;
  const double owd = packet.arrival_time_ms - packet.send_time_ms -
                     config_.link.propagation_delay_ms;
  fb_delay_sum_ms_ += std::max(0.0, owd);
  fb_highest_seq_ = std::max(fb_highest_seq_, packet.sequence + 1);

  // Any arrival (media or parity) may make a parity group recoverable
  // *before* the NACK timer would even notice the gap.
  if (config_.enable_fec && frame.parity_count > 0) TryRecover(key, now_ms);
  ReleaseComplete(key, now_ms);
}

void VideoChannel::TryRecover(const FrameKey& key, double now_ms) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  PendingFrame& frame = it->second;
  if (frame.parity_count == 0 || frame.Complete()) return;
  // Groups partition the fragment range, so one pass over the present
  // parity packets finds every single-gap group.
  for (int j = 0; j < static_cast<int>(frame.parity_count); ++j) {
    if (!frame.parity_have[static_cast<std::size_t>(j)]) continue;
    const int missing =
        fec::MissingFragment(frame.have, frame.parity_count, j);
    if (missing < 0) continue;
    MarkFragmentRecovered(frame, missing, now_ms);
  }
}

void VideoChannel::MarkFragmentRecovered(PendingFrame& frame, int index,
                                         double now_ms) {
  if (index < 0 || index >= static_cast<int>(frame.have.size()) ||
      frame.have[static_cast<std::size_t>(index)]) {
    return;
  }
  frame.have[static_cast<std::size_t>(index)] = true;
  ++frame.received;
  ++stats_.fragments_recovered;
  ++stream_recovered_[frame.stream_id];
  Metrics().fragments_recovered.Add();
  obs::TraceInstant("net.fec_recovered");
  // Recovered fragments are *not* wire receptions: the feedback gap keeps
  // counting them as lost, so the loss estimate (and the redundancy it
  // buys) still tracks the raw link.
  const std::size_t n =
      frame.data ? fec::FragmentSize(frame.data->size(), kMtuBytes,
                                     static_cast<std::size_t>(index))
                 : 0;
  if (fec_hook_) {
    fec_hook_(FecEvent::kRecovered, frame.stream_id, frame.frame_index,
              now_ms, n);
  }
}

void VideoChannel::ReleaseComplete(const FrameKey& key, double now_ms) {
  const auto it = pending_.find(key);
  if (it == pending_.end() || !it->second.Complete()) return;
  PendingFrame& frame = it->second;
  ReceivedFrame done;
  done.stream_id = frame.stream_id;
  done.frame_index = frame.frame_index;
  done.keyframe = frame.keyframe;
  done.send_time_ms = frame.send_time_ms;
  done.complete_time_ms = now_ms;
  done.release_time_ms = frame.send_time_ms + config_.jitter_buffer_ms;
  done.data = frame.data;
  ready_.push_back(done);
  pending_.erase(it);
}

void VideoChannel::Step(double now_ms) {
  if (owns_link_) {
    for (const Packet& p : link_->Poll(now_ms)) {
      Ingest(p, now_ms);
    }
  }
  if (queue_delay_series_ != nullptr && obs::TimeSeriesEnabled()) {
    queue_delay_series_->Sample(now_ms, link_->CurrentQueueDelayMs(now_ms));
    delivered_series_->Sample(now_ms,
                              static_cast<double>(stats_.bytes_delivered));
  }
  ProcessTimers(now_ms);
  if (frame_sink_) {
    auto released = PopReady(now_ms);
    if (!released.empty()) frame_sink_(std::move(released), now_ms);
  }
}

void VideoChannel::Ingest(const Packet& packet, double now_ms) {
  if (packet.flow_id != flow_id_) return;  // not ours (shared-link mux)
  // The payload pointer comes from the sender store (single-process
  // emulation shortcut; content is only readable once the frame
  // completes).
  const auto rec = sent_store_.find(packet.sequence);
  DeliverPacket(packet,
                rec != sent_store_.end() ? rec->second.data : nullptr, now_ms);
}

void VideoChannel::ProcessTimers(double now_ms) {
  if (config_.enable_fec) {
    RunRepairScheduler(now_ms);
  } else if (config_.enable_nack) {
    RunNack(now_ms);
  }

  // Declare pending frames lost once their playout deadline passed; ask
  // for a keyframe so the decoder can resynchronize.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const PendingFrame& f = it->second;
    if (f.send_time_ms + config_.jitter_buffer_ms +
            config_.link.propagation_delay_ms <
        now_ms) {
      ++stats_.frames_lost;
      Metrics().frames_lost.Add();
      obs::TraceInstant("net.frame_lost");
      LIVO_LOG(Debug) << "stream " << f.stream_id << " frame "
                      << f.frame_index << (f.keyframe ? " (key)" : "")
                      << " lost (" << f.received << "/" << f.have.size()
                      << " fragments by deadline)";
      // PLI throttling (as WebRTC does): a keyframe request storm after a
      // loss burst would make every frame an I-frame and deepen the
      // congestion that caused the losses. Under FEC the speculative PLI
      // goes away entirely: parity + the deadline-aware scheduler already
      // spent every repair that could land in time, a lost delta frame
      // costs one stall and nothing else, and a lost keyframe surfaces as
      // subscribers blocked at the SFU's decoder-safety gate — which
      // requests a re-key on actual demand (see SfuActor::OnPairComplete)
      // instead of on every loss the parity packets make visible here.
      const bool continuity_broken = !config_.enable_fec;
      if (continuity_broken &&
          now_ms - last_keyframe_request_ms_[f.stream_id] > 300.0) {
        ++stats_.keyframe_requests;
        Metrics().keyframe_requests.Add();
        obs::TraceInstant("net.keyframe_request");
        keyframe_requested_[f.stream_id] = true;
        last_keyframe_request_ms_[f.stream_id] = now_ms;
        ++stream_plis_[f.stream_id];
      }
      last_released_[f.stream_id] =
          std::max(last_released_[f.stream_id], f.frame_index);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  if (now_ms - last_feedback_ms_ >= config_.feedback_interval_ms) {
    EmitFeedback(now_ms);
  }
}

void VideoChannel::RunNack(double now_ms) {
  const double rtt = rtt_ms_.initialized()
                         ? rtt_ms_.value()
                         : 2.0 * config_.link.propagation_delay_ms;
  for (auto& [key, frame] : pending_) {
    if (frame.Complete() || frame.received == 0) continue;
    // A gap is apparent once later fragments arrived but earlier ones are
    // missing, or nothing new arrived for half an RTT.
    const bool stale = now_ms - frame.last_arrival_ms > rtt / 2.0;
    if (!stale) continue;
    if (frame.nacked_at_ms >= 0.0 && now_ms - frame.nacked_at_ms < rtt) {
      continue;  // outstanding NACK, give it time
    }
    // Retransmit missing fragments if they are still worth sending.
    if (frame.send_time_ms + config_.jitter_buffer_ms < now_ms) continue;
    frame.nacked_at_ms = now_ms;
    ++stats_.nacks_sent;
    ++stream_nacks_[frame.stream_id];
    for (auto& [seq, record] : sent_store_) {
      if (record.packet.parity ||
          record.packet.stream_id != frame.stream_id ||
          record.packet.frame_index != frame.frame_index) {
        continue;
      }
      if (record.packet.fragment < frame.have.size() &&
          !frame.have[record.packet.fragment]) {
        ++stats_.packets_retransmitted;
        Metrics().packets_retransmitted.Add();
        link_->Send(record.packet, now_ms);
      }
    }
  }
}

void VideoChannel::RunRepairScheduler(double now_ms) {
  const double rtt = rtt_ms_.initialized()
                         ? rtt_ms_.value()
                         : 2.0 * config_.link.propagation_delay_ms;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingFrame& frame = it->second;
    if (frame.Complete() || frame.repair_given_up) {
      ++it;
      continue;
    }
    // Same staleness trigger and round-trip guard as the NACK timer: give
    // in-flight fragments (and parity) half an RTT to close the gap.
    const bool stale = now_ms - frame.last_arrival_ms > rtt / 2.0;
    if (!stale ||
        (frame.nacked_at_ms >= 0.0 && now_ms - frame.nacked_at_ms < rtt)) {
      ++it;
      continue;
    }
    const double deadline = frame.send_time_ms + config_.jitter_buffer_ms +
                            config_.link.propagation_delay_ms;
    // The emulated NACK has no reverse path (the receiver pulls the
    // retransmission straight out of the sender's store), so the repair
    // latency is the one-way resend trip — half the measured round trip.
    if (now_ms + rtt / 2.0 <= deadline) {
      // The repair round-trip fits before playout: admit it.
      frame.nacked_at_ms = now_ms;
      ++stats_.nacks_sent;
      ++stats_.repairs_scheduled;
      ++stream_nacks_[frame.stream_id];
      if (fec_hook_) {
        fec_hook_(FecEvent::kRepairScheduled, frame.stream_id,
                  frame.frame_index, now_ms, 0);
      }
      if (config_.enable_nack) {
        for (auto& [seq, record] : sent_store_) {
          if (record.packet.parity ||
              record.packet.stream_id != frame.stream_id ||
              record.packet.frame_index != frame.frame_index) {
            continue;
          }
          if (record.packet.fragment < frame.have.size() &&
              !frame.have[record.packet.fragment]) {
            ++stats_.packets_retransmitted;
            Metrics().packets_retransmitted.Add();
            link_->Send(record.packet, now_ms);
          }
        }
      }
      ++it;
    } else {
      // No repair can land before the playout deadline: stop spending
      // repair rounds on this frame instead of burning the round-trip.
      // The frame itself stays pending — fragments already in flight (or
      // a parity packet) may still complete it before ProcessTimers
      // declares it lost at the deadline. On a FEC channel that raises no
      // PLI, so giving up here never asks for a keyframe.
      frame.repair_given_up = true;
      ++stats_.repairs_abandoned;
      Metrics().repairs_abandoned.Add();
      obs::TraceInstant("net.repair_abandoned");
      if (fec_hook_) {
        fec_hook_(FecEvent::kRepairAbandoned, frame.stream_id,
                  frame.frame_index, now_ms, 0);
      }
      ++it;
    }
  }
}

void VideoChannel::SetStreamRedundancy(std::uint32_t stream_id,
                                       double redundancy) {
  stream_redundancy_[stream_id] = std::clamp(
      redundancy, 0.0, std::max(0.0, config_.fec_redundancy_cap));
}

double VideoChannel::RedundancyFor(std::uint32_t stream_id) const {
  const auto it = stream_redundancy_.find(stream_id);
  return it == stream_redundancy_.end() ? 0.0 : it->second;
}

std::size_t VideoChannel::StreamKeyframeRequests(
    std::uint32_t stream_id) const {
  const auto it = stream_plis_.find(stream_id);
  return it == stream_plis_.end() ? 0 : it->second;
}

std::size_t VideoChannel::StreamNacks(std::uint32_t stream_id) const {
  const auto it = stream_nacks_.find(stream_id);
  return it == stream_nacks_.end() ? 0 : it->second;
}

std::size_t VideoChannel::StreamRecovered(std::uint32_t stream_id) const {
  const auto it = stream_recovered_.find(stream_id);
  return it == stream_recovered_.end() ? 0 : it->second;
}

void VideoChannel::EmitFeedback(double now_ms) {
  FeedbackReport report;
  report.time_ms = now_ms;
  report.interval_ms = now_ms - last_feedback_ms_;
  report.received_bytes = fb_bytes_;
  report.received_packets = fb_packets_;
  // Per-interval loss: growth of the expected-vs-received gap since the
  // previous report.
  const auto gap_now = static_cast<std::int64_t>(fb_highest_seq_) -
                       static_cast<std::int64_t>(fb_received_unique_);
  report.lost_packets =
      static_cast<int>(std::max<std::int64_t>(0, gap_now - fb_prev_gap_));
  fb_prev_gap_ = std::max<std::int64_t>(0, gap_now);
  report.mean_delay_ms =
      fb_packets_ > 0 ? fb_delay_sum_ms_ / fb_packets_ : 0.0;
  report.delay_gradient_ms = report.mean_delay_ms - fb_last_mean_delay_ms_;
  report.rtt_ms = 2.0 * config_.link.propagation_delay_ms +
                  report.mean_delay_ms;
  estimator_.OnFeedback(report);
  rtt_ms_.Add(report.rtt_ms);

  TransportMetrics& metrics = Metrics();
  metrics.feedback_reports.Add();
  metrics.estimated_bps.Set(estimator_.EstimateBps());
  const int total = report.received_packets + report.lost_packets;
  if (total > 0) {
    // Smoothed loss estimate feeding the FEC redundancy policy (empty
    // intervals carry no loss information and are skipped).
    loss_ewma_.Add(static_cast<double>(report.lost_packets) / total);
  }
  metrics.loss_fraction.Set(
      total > 0 ? static_cast<double>(report.lost_packets) / total : 0.0);
  metrics.rtt_ms.Set(rtt_ms_.value());
  LIVO_LOG(Trace) << "feedback @" << now_ms << "ms: estimate "
                  << estimator_.EstimateBps() / 1e6 << " Mbps, lost "
                  << report.lost_packets << "/" << total << ", delay "
                  << report.mean_delay_ms << " ms";

  fb_last_mean_delay_ms_ = report.mean_delay_ms;
  last_feedback_ms_ = now_ms;
  fb_bytes_ = 0;
  fb_packets_ = 0;
  fb_delay_sum_ms_ = 0.0;
}

std::vector<ReceivedFrame> VideoChannel::PopReady(double now_ms) {
  std::vector<ReceivedFrame> out;
  auto it = ready_.begin();
  while (it != ready_.end()) {
    if (it->release_time_ms <= now_ms) {
      last_released_[it->stream_id] =
          std::max(last_released_[it->stream_id], it->frame_index);
      ++stats_.frames_delivered;
      stats_.bytes_delivered += it->data ? it->data->size() : 0;
      Metrics().frames_delivered.Add();
      Metrics().frame_transit_ms.Observe(now_ms - it->send_time_ms);
      out.push_back(*it);
      it = ready_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ReceivedFrame& a, const ReceivedFrame& b) {
              return a.frame_index < b.frame_index;
            });
  return out;
}

double VideoChannel::NextEventTimeMs() const {
  double next = std::numeric_limits<double>::infinity();
  if (owns_link_) next = std::min(next, link_->NextEventTimeMs());

  // Feedback reports fire even on an idle channel: a zero-packet report
  // still drives the estimator (`now - last >= interval`, non-strict).
  next = std::min(next, last_feedback_ms_ + config_.feedback_interval_ms);

  // Jitter-buffer releases (`release <= now`, non-strict).
  for (const ReceivedFrame& r : ready_) {
    next = std::min(next, r.release_time_ms);
  }

  const double rtt = rtt_ms_.initialized()
                         ? rtt_ms_.value()
                         : 2.0 * config_.link.propagation_delay_ms;
  for (const auto& [key, frame] : pending_) {
    // Playout-deadline expiry (strict '<' in ProcessTimers).
    next = std::min(next,
                    StrictlyAfter(frame.send_time_ms +
                                  config_.jitter_buffer_ms +
                                  config_.link.propagation_delay_ms));
    const bool repair_armed =
        !frame.repair_given_up &&
        (config_.enable_fec ||
         (config_.enable_nack && frame.received > 0));
    if (repair_armed && !frame.Complete()) {
      // Staleness is strict ('now - last_arrival > rtt/2'); the re-NACK
      // guard is non-strict ('now - nacked_at >= rtt' to act).
      double t = StrictlyAfter(frame.last_arrival_ms + rtt / 2.0);
      if (frame.nacked_at_ms >= 0.0) {
        t = std::max(t, frame.nacked_at_ms + rtt);
      }
      if (config_.enable_fec) {
        // The repair scheduler must also fire *past* send+jitter: that is
        // where it abandons unrepairable frames ahead of the deadline.
        next = std::min(next, t);
      } else if (t <= frame.send_time_ms + config_.jitter_buffer_ms) {
        // Past send+jitter a retransmission is no longer worth sending
        // (RunNack skips it); the deadline event above handles cleanup.
        next = std::min(next, t);
      }
    }
  }
  return next;
}

bool VideoChannel::TakeKeyframeRequest(std::uint32_t stream_id) {
  const auto it = keyframe_requested_.find(stream_id);
  if (it == keyframe_requested_.end() || !it->second) return false;
  it->second = false;
  return true;
}

ReliableChannel::ReliableChannel(sim::BandwidthTrace trace,
                                 const LinkConfig& config)
    : trace_(std::move(trace)), config_(config) {}

void ReliableChannel::SendMessage(std::uint32_t frame_index, std::size_t bytes,
                                  double now_ms) {
  const double start = std::max(now_ms, next_free_ms_);
  // Serialize at the (scaled) trace rate; random loss appears as goodput
  // reduction because lost segments are retransmitted.
  const double capacity_bits_per_ms = std::max(
      1.0, trace_.AtMs(start) * config_.bandwidth_scale * 1000.0 *
               (1.0 - config_.loss_rate));
  const double serialize_ms =
      static_cast<double>(bytes + kPacketOverhead) * 8.0 / capacity_bits_per_ms;
  next_free_ms_ = start + serialize_ms;

  InFlight entry;
  entry.frame_index = frame_index;
  entry.bytes = bytes;
  entry.send_time_ms = now_ms;
  entry.arrival_ms = next_free_ms_ + config_.propagation_delay_ms;
  in_flight_.push_back(entry);
}

std::vector<ReliableChannel::Delivered> ReliableChannel::PopReady(
    double now_ms) {
  std::vector<Delivered> out;
  while (!in_flight_.empty() && in_flight_.front().arrival_ms <= now_ms) {
    const InFlight& f = in_flight_.front();
    out.push_back({f.frame_index, f.bytes, f.send_time_ms, f.arrival_ms});
    in_flight_.pop_front();
  }
  return out;
}

double ReliableChannel::NextEventTimeMs() const {
  return in_flight_.empty() ? std::numeric_limits<double>::infinity()
                            : in_flight_.front().arrival_ms;
}

void ReliableChannel::Step(double now_ms) {
  for (const Delivered& d : PopReady(now_ms)) {
    if (delivery_sink_) delivery_sink_(d);
  }
}

std::size_t ReliableChannel::BacklogBytes(double now_ms) const {
  std::size_t backlog = 0;
  for (const InFlight& f : in_flight_) {
    if (f.arrival_ms - config_.propagation_delay_ms > now_ms) {
      backlog += f.bytes;
    }
  }
  return backlog;
}

}  // namespace livo::net
