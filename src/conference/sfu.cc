#include "conference/sfu.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "fec/fec.h"
#include "obs/obs.h"

namespace livo::conference {
namespace {

struct ConferenceMetrics {
  obs::Registry& reg = obs::Registry::Get();
  obs::Counter& frames_in = reg.GetCounter("conference.frames_in");
  obs::Counter& pairs_forwarded = reg.GetCounter("conference.pairs_forwarded");
  obs::Counter& dropped_budget =
      reg.GetCounter("conference.pairs_dropped_budget");
  obs::Counter& dropped_congestion =
      reg.GetCounter("conference.pairs_dropped_congestion");
  obs::Counter& dropped_awaiting_key =
      reg.GetCounter("conference.pairs_dropped_awaiting_key");
  obs::Counter& dropped_layer_incomplete =
      reg.GetCounter("conference.pairs_dropped_layer_incomplete");
  obs::Counter& layer_switches = reg.GetCounter("conference.layer_switches");
  obs::Counter& keyframe_relays = reg.GetCounter("conference.keyframe_relays");
  obs::Histogram& forward_bytes =
      reg.GetHistogram("conference.forward_pair_bytes");
};

ConferenceMetrics& Metrics() {
  static ConferenceMetrics metrics;
  return metrics;
}

}  // namespace

int TopCompleteLayer(const std::vector<LadderPair>& ladder) {
  int q = static_cast<int>(ladder.size()) - 1;
  while (q >= 0 && !ladder[static_cast<std::size_t>(q)].Complete()) --q;
  return q;
}

SfuActor::SfuActor(runtime::EventLoop& loop,
                   const std::vector<ParticipantSpec>& specs,
                   const ConferenceOptions& options, double horizon_ms)
    : loop_(loop),
      options_(options),
      horizon_ms_(horizon_ms),
      parties_(static_cast<int>(specs.size())),
      layers_(EffectiveLadderLayers(options, parties_)),
      allocator_(parties_, MakeAllocatorConfig(options, parties_)),
      pricer_(parties_, layers_, options.allocation_interval_ms) {
  stats_.forwarded_by_layer.assign(static_cast<std::size_t>(layers_), 0);
  predictors_.reserve(specs.size());
  for (const ParticipantSpec& spec : specs) {
    predictors_.emplace_back(spec.config.predictor);
  }
  pose_feed_idx_.assign(specs.size(), 0);
  remote_pose_feed_idx_.assign(specs.size(), 0);
  visibility_.assign(specs.size(),
                     std::vector<double>(specs.size() - 1, 1.0));
  pending_.resize(specs.size());
  awaiting_key_.assign(specs.size(),
                       std::vector<bool>(specs.size() - 1, true));
  last_key_relay_ms_.assign(specs.size(),
                            -options.keyframe_relay_throttle_ms);
  seat_offsets_.reserve(specs.size() - 1);
  for (int slot = 0; slot < parties_ - 1; ++slot) {
    seat_offsets_.push_back(
        SeatPosition(slot, parties_ - 1, options_.seats));
  }
  uplink_prop_ms_ = (options_.uplink_mode == LinkMode::kShared
                         ? options_.shared_uplink_config
                         : options_.uplink_channel.link)
                        .propagation_delay_ms;
  downlink_prop_ms_ = (options_.downlink_mode == LinkMode::kShared
                           ? options_.shared_downlink_config
                           : options_.downlink_channel.link)
                          .propagation_delay_ms;
}

void SfuActor::AddParticipant(ParticipantActor* participant) {
  const int origin = static_cast<int>(participants_.size());
  participants_.push_back(participant);
  if (participant == nullptr) return;  // remote region of a cascade
  participant->uplink().SetFrameSink(
      [this, origin](std::vector<net::ReceivedFrame> frames, double now_ms) {
        OnUplinkFrames(origin, frames, now_ms);
      });
  if (options_.fec.enabled) {
    // Uplink loss-resilience hops: the SFU is the receiving end, so the
    // subscriber field is -1 and `layer` carries the uplink stream id
    // (which encodes (ladder layer, depth/color lane)).
    participant->uplink().SetFecEventHook(
        [origin](net::VideoChannel::FecEvent event, std::uint32_t stream_id,
                 std::uint32_t frame_index, double now_ms, std::size_t bytes) {
          obs::FrameLedger& ledger = obs::FrameLedger::Get();
          if (!ledger.enabled()) return;
          ledger.Record(origin, static_cast<std::int32_t>(frame_index), -1,
                        FecLedgerHop(event), now_ms, bytes, false,
                        static_cast<std::int32_t>(stream_id));
        });
  }
}

void SfuActor::SetSharedLinks(runtime::SharedLink* uplink,
                              runtime::SharedLink* downlink) {
  shared_uplink_ = uplink;
  shared_downlink_ = downlink;
}

void SfuActor::ConfigureCascade(RelayPort* relay, int region) {
  relay_ = relay;
  region_ = region;
  // A remote subscriber sits two relay hops away in each direction
  // (edge -> root -> edge for frames, the same path back for feedback).
  cascade_rtt_ms_ = 4.0 * options_.relay_hop_delay_ms;
}

void SfuActor::Start() {
  pending_wake_ =
      loop_.ScheduleAt(0.0, [this](double t) { OnNetworkActivity(t); });
  pending_wake_ms_ = 0.0;
}

void SfuActor::OnNetworkActivity(double now_ms) {
  FeedPoses(now_ms);
  if (shared_uplink_ != nullptr) shared_uplink_->PumpUpTo(now_ms);
  if (shared_downlink_ != nullptr) shared_downlink_->PumpUpTo(now_ms);
  RunAllocations(now_ms);
  // Uplink channels first: their frame sinks run ForwardPair, whose sends
  // then ride the downlink Step in the same activity.
  for (ParticipantActor* p : participants_) {
    if (p != nullptr) p->uplink().Step(now_ms);
  }
  RelayKeyframeRequests(now_ms);
  for (ParticipantActor* p : participants_) {
    if (p != nullptr) p->downlink().Step(now_ms);
  }
  ScheduleNext(now_ms);
}

void SfuActor::FeedPoses(double now_ms) {
  for (int s = 0; s < parties_; ++s) {
    if (!IsLocal(s)) continue;  // the subscriber's own edge feeds it
    // Pose feedback rides the subscriber's uplink to the SFU.
    const auto& poses = participants_[static_cast<std::size_t>(s)]
                            ->user_trace()
                            .poses;
    auto& idx = pose_feed_idx_[static_cast<std::size_t>(s)];
    while (idx < poses.size() &&
           poses[idx].time_ms + uplink_prop_ms_ <= now_ms) {
      predictors_[static_cast<std::size_t>(s)].ObservePose(poses[idx]);
      ++idx;
    }
    // The predictor's horizon is the SFU->subscriber leg.
    predictors_[static_cast<std::size_t>(s)].ObserveRtt(
        participants_[static_cast<std::size_t>(s)]->downlink()
            .SmoothedRttMs());
  }
  // Point-to-point degenerate case: the single subscriber's poses also
  // continue to the origin's sender (SFU relays them down the origin's
  // feedback path), enabling the paper's sender-side culling unchanged.
  if (parties_ == 2) {
    for (int origin = 0; origin < 2; ++origin) {
      const int subscriber = 1 - origin;
      if (!IsLocal(origin) || !IsLocal(subscriber)) continue;
      const auto& poses =
          participants_[static_cast<std::size_t>(subscriber)]
              ->user_trace()
              .poses;
      auto& idx = remote_pose_feed_idx_[static_cast<std::size_t>(origin)];
      const double delay = uplink_prop_ms_ + downlink_prop_ms_;
      while (idx < poses.size() && poses[idx].time_ms + delay <= now_ms) {
        participants_[static_cast<std::size_t>(origin)]->ObserveRemotePose(
            poses[idx]);
        ++idx;
      }
    }
  }
}

void SfuActor::RunAllocations(double now_ms) {
  while (next_alloc_ms_ <= now_ms) {
    LIVO_SPAN("conference.allocate");
    // Per-origin demand this edge reports upstream: the max visibility any
    // local subscriber has of that origin's seat. This is the inter-SFU
    // flow-control signal a cascade aggregates; unused when direct.
    std::vector<double> demand(static_cast<std::size_t>(parties_), 0.0);
    for (int s = 0; s < parties_; ++s) {
      if (!IsLocal(s)) continue;  // allocated by the subscriber's own edge
      ParticipantActor* sub = participants_[static_cast<std::size_t>(s)];
      std::vector<double> visibility(static_cast<std::size_t>(parties_ - 1),
                                     1.0);
      const core::FrustumPredictor& predictor =
          predictors_[static_cast<std::size_t>(s)];
      if (predictor.ready() && parties_ > 2) {
        const geom::Frustum frustum = predictor.PredictFrustum();
        for (int slot = 0; slot < parties_ - 1; ++slot) {
          visibility[static_cast<std::size_t>(slot)] = VisibleFraction(
              frustum, options_.seats,
              seat_offsets_[static_cast<std::size_t>(slot)]);
        }
      }
      for (int origin = 0; origin < parties_; ++origin) {
        if (origin == s) continue;
        double& d = demand[static_cast<std::size_t>(origin)];
        d = std::max(
            d, visibility[static_cast<std::size_t>(SlotOf(s, origin))]);
      }
      const double budget_bytes = sub->downlink().TargetBitrateBps() *
                                  options_.allocation_interval_ms / 1000.0 /
                                  8.0;
      visibility_[static_cast<std::size_t>(s)] = visibility;
      allocator_.BeginInterval(s, next_alloc_ms_, budget_bytes, visibility);
    }
    if (relay_ != nullptr) {
      relay_->OnAllocationInterval(next_alloc_ms_, demand, now_ms);
    }
    next_alloc_ms_ += options_.allocation_interval_ms;
  }
}

void SfuActor::OnUplinkFrames(int origin,
                              const std::vector<net::ReceivedFrame>& frames,
                              double now_ms) {
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  auto& pending = pending_[static_cast<std::size_t>(origin)];
  for (const net::ReceivedFrame& frame : frames) {
    // Uplink ids are LadderColorStream/LadderDepthStream: the top layer
    // rides the canonical 0/1 pair, layer q rides 2*(layers-1-q)(+1).
    if (frame.stream_id >= 2u * static_cast<std::uint32_t>(layers_)) continue;
    const int q = layers_ - 1 - static_cast<int>(frame.stream_id / 2u);
    const bool is_depth = (frame.stream_id & 1u) != 0u;
    ++stats_.frames_in;
    Metrics().frames_in.Add();
    std::vector<LadderPair>& ladder = pending[frame.frame_index];
    if (ladder.empty()) ladder.resize(static_cast<std::size_t>(layers_));
    LadderPair& pair = ladder[static_cast<std::size_t>(q)];
    if (!is_depth) {
      pair.color = frame.data;
      pair.color_keyframe = frame.keyframe;
    } else {
      pair.depth = frame.data;
      pair.depth_keyframe = frame.keyframe;
    }
    // The forward trigger is the *top* pair completing: lower layers are
    // uplinked first, so whatever of them survived is already here, and
    // waiting longer would only add latency for quality the top layer
    // already delivers.
    if (q != layers_ - 1 || !pair.Complete()) continue;
    const std::vector<LadderPair> complete = std::move(ladder);
    pending.erase(frame.frame_index);
    // Ladders older than the pair we are about to forward will never see
    // their top complete (it died on the uplink — typically the keyframe
    // top pair, which serializes last behind the whole ladder). Dropping
    // them wholesale would deadlock awaiting-key streams: every re-keyed
    // ladder dies the same way on the same constrained uplink. Instead
    // forward best-effort from the highest layer whose both halves
    // survived; only a ladder with no intact layer is evicted.
    for (auto it = pending.begin();
         it != pending.end() && it->first < frame.frame_index;) {
      FinalizeStranded(origin, it->first, it->second, now_ms);
      it = pending.erase(it);
    }
    ++stats_.pairs_completed;
    if (ledger.enabled()) {
      const LadderPair& t = complete.back();
      ledger.Record(origin, static_cast<std::int32_t>(frame.frame_index), -1,
                    obs::LedgerHop::kPairComplete, now_ms,
                    t.color->size() + t.depth->size(),
                    t.color_keyframe && t.depth_keyframe);
    }
    ForwardPair(origin, frame.frame_index, complete, now_ms);
  }
}

void SfuActor::FinalizeStranded(int origin, std::uint32_t frame_index,
                                const std::vector<LadderPair>& ladder,
                                double now_ms) {
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  const int ref = TopCompleteLayer(ladder);
  if (ref < 0) {
    ++stats_.pairs_evicted_incomplete;
    if (ledger.enabled()) {
      ledger.Record(origin, static_cast<std::int32_t>(frame_index), -1,
                    obs::LedgerHop::kEvicted, now_ms);
    }
    return;
  }
  ++stats_.pairs_completed;
  ++stats_.pairs_salvaged;
  if (ledger.enabled()) {
    const LadderPair& r = ladder[static_cast<std::size_t>(ref)];
    ledger.Record(origin, static_cast<std::int32_t>(frame_index), -1,
                  obs::LedgerHop::kPairComplete, now_ms,
                  r.color->size() + r.depth->size(),
                  r.color_keyframe && r.depth_keyframe);
  }
  ForwardPair(origin, frame_index, ladder, now_ms);
}

void SfuActor::ForwardPair(int origin, std::uint32_t frame_index,
                           const std::vector<LadderPair>& ladder,
                           double now_ms) {
  // Reference layer: the highest one with both halves intact. On the fast
  // path (top pair completed) this is the top layer; for salvaged ladders
  // it is the best surviving lower layer. The encoders run in lockstep, so
  // its keyframe phase speaks for the whole ladder.
  const int ref = TopCompleteLayer(ladder);
  if (ref < 0) return;
  const LadderPair& top = ladder[static_cast<std::size_t>(ref)];
  const bool key_pair = top.color_keyframe && top.depth_keyframe;
  const double interval = participants_[static_cast<std::size_t>(origin)]
                              ->capture_interval_ms();
  const std::vector<LayerPairBytes> candidates =
      PriceLadder(origin, key_pair, interval, ladder);

  // The origin's encode-probe RMSEs travel with the pair (metadata): feed
  // them to every subscriber's line-search controller for this origin.
  const core::SenderFrameStats* stats =
      participants_[static_cast<std::size_t>(origin)]->StatsFor(frame_index);

  FanOutLadder(origin, frame_index, ladder, candidates, ref, key_pair, stats,
               now_ms);

  if (relay_ == nullptr) return;
  // Offer the phase-matching complete layers to the cascade; the relay
  // allocator decides which prefix (if any) crosses the pipe. Payload
  // buffers are shared, not copied.
  RelayLadder msg;
  msg.origin = origin;
  msg.frame_index = frame_index;
  msg.key_pair = key_pair;
  msg.capture_interval_ms = interval;
  if (stats != nullptr) {
    msg.has_stats = true;
    msg.stats = *stats;
  }
  msg.layers.resize(static_cast<std::size_t>(layers_));
  for (int q = 0; q < layers_; ++q) {
    if (candidates[static_cast<std::size_t>(q)].valid) {
      msg.layers[static_cast<std::size_t>(q)] =
          ladder[static_cast<std::size_t>(q)];
    }
  }
  relay_->OfferLadder(msg, now_ms);
}

std::vector<LayerPairBytes> SfuActor::PriceLadder(
    int origin, bool key_pair, double capture_interval_ms,
    const std::vector<LadderPair>& ladder) {
  // One candidate per ladder layer. A layer is valid only if both halves
  // survived and its keyframe phase matches the ladder's (the encoders run
  // in lockstep, so a mismatch means the layer restarted out of phase and
  // cannot anchor).
  std::vector<LayerPairBytes> candidates(static_cast<std::size_t>(layers_));
  for (int q = 0; q < layers_; ++q) {
    const LadderPair& layer = ladder[static_cast<std::size_t>(q)];
    if (!layer.Complete()) continue;
    if ((layer.color_keyframe && layer.depth_keyframe) != key_pair) continue;
    LayerPairBytes& c = candidates[static_cast<std::size_t>(q)];
    c.color_bytes = layer.color->size();
    c.depth_bytes = layer.depth->size();
    c.valid = true;
  }
  pricer_.Price(origin, key_pair, capture_interval_ms, candidates);
  return candidates;
}

void SfuActor::FanOutLadder(int origin, std::uint32_t frame_index,
                            const std::vector<LadderPair>& layers,
                            const std::vector<LayerPairBytes>& candidates,
                            int ref, bool key_pair,
                            const core::SenderFrameStats* stats,
                            double now_ms) {
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  const bool ledger_on = ledger.enabled();
  const auto frame = static_cast<std::int32_t>(frame_index);
  const LadderPair& top = layers[static_cast<std::size_t>(ref)];
  const std::uint64_t pair_bytes = top.color->size() + top.depth->size();

  for (int s = 0; s < parties_; ++s) {
    if (s == origin) continue;
    if (!IsLocal(s)) continue;  // fanned out by the subscriber's own edge
    const int slot = SlotOf(s, origin);
    ParticipantActor* sub = participants_[static_cast<std::size_t>(s)];
    if (stats != nullptr && stats->rmse_depth >= 0.0) {
      allocator_.ObserveProbe(s, slot, stats->rmse_depth, stats->rmse_color);
    }

    auto awaiting =
        awaiting_key_[static_cast<std::size_t>(s)].begin() + slot;
    // Every drop marks the stream awaiting a keyframe and relays a
    // throttled PLI to the origin (see header).
    const auto drop = [&](std::size_t& count, obs::Counter& metric,
                          obs::LedgerHop hop, int layer) {
      ++count;
      metric.Add();
      if (ledger_on) {
        ledger.Record(origin, frame, s, hop, now_ms, pair_bytes, key_pair,
                      layer);
      }
      *awaiting = true;
      RequestOriginKeyframe(origin, now_ms);
    };
    // 1. Downlink congestion valve (see header).
    if (sub->downlink().link().CurrentQueueDelayMs(now_ms) >
        options_.downlink_channel.jitter_buffer_ms) {
      drop(stats_.pairs_dropped_congestion, Metrics().dropped_congestion,
           obs::LedgerHop::kDroppedCongestion, -1);
      continue;
    }
    // 2. Decoder-safety gate: no P-frames into a stream that lost one.
    if (*awaiting && !key_pair) {
      drop(stats_.pairs_dropped_awaiting_key, Metrics().dropped_awaiting_key,
           obs::LedgerHop::kDroppedAwaitingKey, -1);
      continue;
    }
    // 3. Layer verdict (allocator.h Admit): keyframe pairs re-anchor the
    // stream at the best affordable complete layer; P-pairs must continue
    // the stream's current layer — the subscriber's decoder for any other
    // layer has no reference to extend.
    const int previous = allocator_.CurrentLayer(s, slot);
    const int chosen = allocator_.Admit(s, slot, key_pair, candidates);
    if (chosen == DownlinkAllocator::kNoCurrentLayer) {
      drop(stats_.pairs_dropped_layer_incomplete,
           Metrics().dropped_layer_incomplete,
           obs::LedgerHop::kDroppedLayerIncomplete, previous);
      continue;
    }
    if (chosen < 0) {
      drop(stats_.pairs_dropped_budget, Metrics().dropped_budget,
           obs::LedgerHop::kDroppedBudget, -1);
      continue;
    }

    const LadderPair& sent = layers[static_cast<std::size_t>(chosen)];
    const std::size_t sent_bytes = sent.color->size() + sent.depth->size();
    if (options_.fec.enabled) {
      // Visibility-weighted redundancy (DESIGN.md §12): utility is the
      // Kalman-predicted visible fraction of this origin's seat, tilted
      // by the (subscriber, slot) split controller's depth-vs-color
      // weight — parity goes first to the streams whose loss the viewer
      // would actually see.
      const double vis =
          visibility_[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(slot)];
      const double split = allocator_.SplitOf(s, slot);
      const double loss = sub->downlink().LossEstimate();
      sub->downlink().SetStreamRedundancy(
          DownlinkStream(layers_, slot, chosen, false),
          fec::ChooseRedundancy(
              options_.fec, loss,
              std::clamp(vis * 2.0 * (1.0 - split), 0.0, 1.0)));
      sub->downlink().SetStreamRedundancy(
          DownlinkStream(layers_, slot, chosen, true),
          fec::ChooseRedundancy(options_.fec, loss,
                                std::clamp(vis * 2.0 * split, 0.0, 1.0)));
    }
    sub->downlink().SendFrame(DownlinkStream(layers_, slot, chosen, false),
                              frame_index, sent.color_keyframe, sent.color,
                              now_ms);
    sub->downlink().SendFrame(DownlinkStream(layers_, slot, chosen, true),
                              frame_index, sent.depth_keyframe, sent.depth,
                              now_ms);
    if (key_pair) {
      if (previous >= 0 && chosen != previous) {
        if (chosen > previous) {
          ++stats_.layer_switches_up;
        } else {
          ++stats_.layer_switches_down;
        }
        Metrics().layer_switches.Add();
      }
      *awaiting = false;
    }
    ++stats_.pairs_forwarded;
    ++stats_.forwarded_by_layer[static_cast<std::size_t>(chosen)];
    if (ledger_on) {
      ledger.Record(origin, frame, s, obs::LedgerHop::kForwarded, now_ms,
                    sent_bytes, key_pair, chosen);
    }
    Metrics().pairs_forwarded.Add();
    Metrics().forward_bytes.Observe(static_cast<double>(sent_bytes));
    sub->NotePairForwarded(slot, frame_index, now_ms, sent_bytes, chosen);
  }
}

void SfuActor::OnRelayLadder(const RelayLadder& msg, double now_ms) {
  // Bring links and allocation intervals up to the delivery instant so the
  // gate loop sees the same fresh state the local uplink-sink path does
  // (there the sink fires inside OnNetworkActivity's uplink Step).
  OnNetworkActivity(now_ms);
  // Layers the origin edge withheld (phase mismatch / uplink loss) or the
  // relay allocator trimmed off the admitted prefix are incomplete. The
  // price is keyed to the capture interval the origin shipped.
  const std::vector<LayerPairBytes> candidates =
      PriceLadder(msg.origin, msg.key_pair, msg.capture_interval_ms,
                  msg.layers);
  obs::FrameLedger& ledger = obs::FrameLedger::Get();
  for (int q = 0; q < layers_ && ledger.enabled(); ++q) {
    const LayerPairBytes& c = candidates[static_cast<std::size_t>(q)];
    if (!c.valid) continue;
    ledger.Record(msg.origin, static_cast<std::int32_t>(msg.frame_index),
                  -2 - region_, obs::LedgerHop::kRelayIngested, now_ms,
                  c.color_bytes + c.depth_bytes, msg.key_pair, q);
  }
  const int ref = TopCompleteLayer(msg.layers);
  if (ref < 0) return;
  FanOutLadder(msg.origin, msg.frame_index, msg.layers, candidates, ref,
               msg.key_pair, msg.has_stats ? &msg.stats : nullptr, now_ms);
  // The fan-out's sends need the downlink pump: in the local path they
  // ride the downlink Step of the same OnNetworkActivity that stepped the
  // uplinks; here the ingest happened after it.
  for (ParticipantActor* p : participants_) {
    if (p != nullptr) p->downlink().Step(now_ms);
  }
  ScheduleNext(now_ms);
}

void SfuActor::OnRemoteKeyframeRequest(int origin, double now_ms) {
  RequestOriginKeyframe(origin, now_ms);
}

void SfuActor::RelayKeyframeRequests(double now_ms) {
  for (int p = 0; p < parties_; ++p) {
    if (!IsLocal(p)) continue;
    ParticipantActor* participant = participants_[static_cast<std::size_t>(p)];
    // The SFU is the receiver of p's uplink: its own reassembly raises
    // PLI when the uplink loses frames on any ladder layer's streams. A
    // PLI re-keys the whole ladder (the origin's layer encoders run in
    // lockstep), so the requests collapse into one relay. Poll every id —
    // TakeKeyframeRequest consumes, and short-circuiting would leave a
    // stale request armed for next time.
    bool uplink_pli = false;
    for (std::uint32_t id = 0; id < 2u * static_cast<std::uint32_t>(layers_);
         ++id) {
      uplink_pli = participant->uplink().TakeKeyframeRequest(id) || uplink_pli;
    }
    if (uplink_pli) RequestOriginKeyframe(p, now_ms);
    // Subscriber-side PLIs arrive (slot, layer)-addressed on p's downlink
    // and are relayed to the slot's origin.
    for (int slot = 0; slot < parties_ - 1; ++slot) {
      bool downlink_pli = false;
      for (int q = 0; q < layers_; ++q) {
        downlink_pli =
            participant->downlink().TakeKeyframeRequest(
                DownlinkStream(layers_, slot, q, false)) ||
            downlink_pli;
        downlink_pli =
            participant->downlink().TakeKeyframeRequest(
                DownlinkStream(layers_, slot, q, true)) ||
            downlink_pli;
      }
      if (downlink_pli) {
        RequestOriginKeyframe(OriginOfSlot(p, slot), now_ms);
      }
    }
  }
}

void SfuActor::RequestOriginKeyframe(int origin, double now_ms) {
  double& last = last_key_relay_ms_[static_cast<std::size_t>(origin)];
  if (now_ms - last < options_.keyframe_relay_throttle_ms) return;
  last = now_ms;
  if (!IsLocal(origin)) {
    // The PLI crosses the cascade; the origin's own edge counts the relay
    // when it lands there (keyframe_relays stays a per-origin-edge stat).
    if (relay_ != nullptr) relay_->RequestRemoteKeyframe(origin, now_ms);
    return;
  }
  ++stats_.keyframe_relays;
  Metrics().keyframe_relays.Add();
  participants_[static_cast<std::size_t>(origin)]->RelayKeyframeRequest();
}

double SfuActor::OriginBudgetBps(int origin) const {
  double best = 0.0;
  bool any = false;
  for (int s = 0; s < parties_; ++s) {
    if (s == origin || !IsLocal(s)) continue;
    if (!allocator_.Initialized(s)) continue;
    any = true;
    const double share = allocator_.ShareOf(s, SlotOf(s, origin));
    best = std::max(
        best,
        participants_[static_cast<std::size_t>(s)]->downlink()
                .TargetBitrateBps() *
            share);
  }
  if (relay_ != nullptr && IsLocal(origin)) {
    // Remote subscribers are represented by the relay-pipe grant (negative
    // until the relay's first allocation interval).
    const double relay_bps = relay_->RelayBudgetBps(origin);
    if (relay_bps >= 0.0) {
      any = true;
      best = std::max(best, relay_bps);
    }
  }
  return any ? best : std::numeric_limits<double>::infinity();
}

double SfuActor::MaxSubscriberDownlinkRttMs(int origin) const {
  double worst = 0.0;
  for (int s = 0; s < parties_; ++s) {
    if (s == origin || !IsLocal(s)) continue;
    worst = std::max(
        worst,
        participants_[static_cast<std::size_t>(s)]->downlink()
            .SmoothedRttMs());
  }
  if (relay_ != nullptr) {
    for (int s = 0; s < parties_; ++s) {
      if (s == origin || IsLocal(s)) continue;
      // A remote subscriber's own downlink RTT is invisible here; the
      // cascade's four relay hops dominate it anyway.
      worst = std::max(worst, cascade_rtt_ms_);
      break;
    }
  }
  return worst;
}

void SfuActor::ScheduleNext(double now_ms) {
  double next = next_alloc_ms_;
  for (ParticipantActor* p : participants_) {
    if (p == nullptr) continue;
    next = std::min(next, p->uplink().NextEventTimeMs());
    next = std::min(next, p->downlink().NextEventTimeMs());
  }
  if (shared_uplink_ != nullptr) {
    next = std::min(next, shared_uplink_->NextEventTimeMs());
  }
  if (shared_downlink_ != nullptr) {
    next = std::min(next, shared_downlink_->NextEventTimeMs());
  }
  for (int s = 0; s < parties_; ++s) {
    if (!IsLocal(s)) continue;
    const auto& poses =
        participants_[static_cast<std::size_t>(s)]->user_trace().poses;
    const auto idx = pose_feed_idx_[static_cast<std::size_t>(s)];
    if (idx < poses.size()) {
      next = std::min(next, poses[idx].time_ms + uplink_prop_ms_);
    }
  }
  next = std::max(std::ceil(next), now_ms + 1.0);
  if (next > horizon_ms_) return;
  if (pending_wake_ != runtime::EventLoop::kInvalidEvent &&
      pending_wake_ms_ > now_ms) {
    if (pending_wake_ms_ == next) return;  // already armed for that instant
    loop_.Cancel(pending_wake_);
  }
  pending_wake_ =
      loop_.ScheduleAt(next, [this](double t) { OnNetworkActivity(t); });
  pending_wake_ms_ = next;
}

}  // namespace livo::conference
