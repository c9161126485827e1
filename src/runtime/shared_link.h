// Shared bottleneck for multi-session experiments (livo::runtime).
//
// N VideoChannels normally each own a private LinkEmulator; SharedLink
// instead owns one emulator and multiplexes every attached channel's
// packets through it, so concurrent sessions contend for the same
// serialization queue — the ReVo-style setting (PAPERS.md) where GCC
// fairness and queue interactions appear. Packets carry a flow_id; the mux
// polls the link and routes each delivery back to the channel that sent it
// (per-flow sequence spaces never mix).
//
// Flow registration is explicit and validated: Connect() (or Register())
// must have claimed a flow id before any packet carrying it reaches the
// mux. Duplicate registrations and deliveries for unknown flows throw —
// a packet silently dropped at the mux would surface hundreds of virtual
// milliseconds later as an unexplained stall, so the wiring bug is turned
// into an immediate, attributable failure instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/transport.h"
#include "sim/nettrace.h"

namespace livo::obs {
class TimeSeries;
}  // namespace livo::obs

namespace livo::runtime {

class SharedLink {
 public:
  // `obs_label` prefixes the bottleneck's time-series instruments
  // (`<label>.queue_delay_ms`, `<label>.flow<k>.delivered_bytes`).
  SharedLink(sim::BandwidthTrace trace, const net::LinkConfig& config,
             std::string obs_label = "runtime.sharedlink");

  // Creates a channel attached to this bottleneck with a fresh flow id.
  // The channel must not outlive the SharedLink.
  std::unique_ptr<net::VideoChannel> Connect(const net::ChannelConfig& config);

  // Claims `flow_id` for `channel`. Ids are allocated contiguously from 0;
  // throws std::invalid_argument if the id is already taken or would leave
  // a gap. Connect() registers automatically — call this directly only
  // when the channel is constructed elsewhere against link_ptr().
  void Register(std::uint32_t flow_id, net::VideoChannel* channel);

  // Routes one delivered packet to its flow, updating the per-flow byte
  // accounting. Throws std::out_of_range for a flow id no channel
  // registered (a mis-wired topology, not a recoverable condition).
  void Ingest(const net::Packet& packet, double now_ms);

  // Polls the link and routes packets with arrival <= now_ms to their
  // flows. Idempotent within a timestep: callers at the same virtual time
  // can each invoke it (the first drains everything due).
  void PumpUpTo(double now_ms);

  // Earliest pending delivery across all flows (+infinity when idle).
  double NextEventTimeMs() const { return link_->NextEventTimeMs(); }

  const net::LinkEmulator& link() const { return *link_; }
  const std::shared_ptr<net::LinkEmulator>& link_ptr() const { return link_; }
  std::size_t flow_count() const { return flows_.size(); }

  // Wire bytes (payload + header overhead) delivered to one flow — the
  // per-flow share of the bottleneck, used by the fairness tests.
  std::size_t FlowDeliveredBytes(std::uint32_t flow_id) const;

 private:
  std::shared_ptr<net::LinkEmulator> link_;
  std::string obs_label_;
  obs::TimeSeries* queue_delay_series_;          // registry-owned
  std::vector<net::VideoChannel*> flows_;        // index == flow_id
  std::vector<std::size_t> flow_bytes_;          // delivered wire bytes
  std::vector<obs::TimeSeries*> flow_series_;    // index == flow_id
};

// The trace-driven access link of one replay session (§4.1 "Trace
// replay"). Every replay session, p2p or conference, builds its channels
// through it, so the warm start and the replay set-up exist once.
struct ReplayLink {
  // Paper-scale capacity, and the factor that maps it to simulator rates.
  const sim::BandwidthTrace* trace = nullptr;
  double bandwidth_scale = 1.0;
  // How a private link replays `trace` (BandwidthTrace::Replayed).
  double accel = 1.0;
  double offset_ms = 0.0;
  // The bottleneck `trace` drives and the number of flows it carries;
  // null for a private link.
  SharedLink* shared = nullptr;
  int flows = 1;

  // Sets config.link.bandwidth_scale and warm-starts the GCC estimator at
  // 0.8 x the trace's scaled mean, divided evenly among the flows (real
  // deployments remember prior sessions; the paper's sessions are minutes
  // long, so the ramp-up transient is negligible there). The channel then
  // owns a link replaying trace->Replayed(accel, offset_ms), or connects
  // to `shared` as its next flow.
  std::unique_ptr<net::VideoChannel> MakeChannel(
      net::ChannelConfig config) const;
};

}  // namespace livo::runtime
