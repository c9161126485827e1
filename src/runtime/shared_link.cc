#include "runtime/shared_link.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace livo::runtime {

SharedLink::SharedLink(sim::BandwidthTrace trace,
                       const net::LinkConfig& config, std::string obs_label)
    : link_(std::make_shared<net::LinkEmulator>(std::move(trace), config)),
      obs_label_(std::move(obs_label)),
      queue_delay_series_(&obs::Registry::Get().GetTimeSeries(
          obs_label_ + ".queue_delay_ms")) {}

std::unique_ptr<net::VideoChannel> SharedLink::Connect(
    const net::ChannelConfig& config) {
  const auto flow_id = static_cast<std::uint32_t>(flows_.size());
  auto channel =
      std::make_unique<net::VideoChannel>(link_, config, flow_id);
  Register(flow_id, channel.get());
  return channel;
}

void SharedLink::Register(std::uint32_t flow_id, net::VideoChannel* channel) {
  if (channel == nullptr) {
    throw std::invalid_argument("SharedLink::Register: null channel");
  }
  if (flow_id < flows_.size()) {
    throw std::invalid_argument("SharedLink::Register: duplicate flow id " +
                                std::to_string(flow_id));
  }
  if (flow_id != flows_.size()) {
    throw std::invalid_argument(
        "SharedLink::Register: flow id " + std::to_string(flow_id) +
        " would leave a gap (next free id is " +
        std::to_string(flows_.size()) + ")");
  }
  flows_.push_back(channel);
  flow_bytes_.push_back(0);
  flow_series_.push_back(&obs::Registry::Get().GetTimeSeries(
      obs_label_ + ".flow" + std::to_string(flow_id) + ".delivered_bytes"));
}

void SharedLink::Ingest(const net::Packet& packet, double now_ms) {
  if (packet.flow_id >= flows_.size()) {
    throw std::out_of_range(
        "SharedLink::Ingest: packet for unregistered flow " +
        std::to_string(packet.flow_id) + " (only " +
        std::to_string(flows_.size()) + " flows registered)");
  }
  flow_bytes_[packet.flow_id] += packet.WireBytes();
  flows_[packet.flow_id]->Ingest(packet, now_ms);
}

void SharedLink::PumpUpTo(double now_ms) {
  for (const net::Packet& p : link_->Poll(now_ms)) {
    Ingest(p, now_ms);
  }
  if (obs::TimeSeriesEnabled()) {
    queue_delay_series_->Sample(now_ms, link_->CurrentQueueDelayMs(now_ms));
    for (std::size_t k = 0; k < flow_series_.size(); ++k) {
      flow_series_[k]->Sample(now_ms, static_cast<double>(flow_bytes_[k]));
    }
  }
}

std::size_t SharedLink::FlowDeliveredBytes(std::uint32_t flow_id) const {
  if (flow_id >= flow_bytes_.size()) {
    throw std::out_of_range("SharedLink::FlowDeliveredBytes: unknown flow " +
                            std::to_string(flow_id));
  }
  return flow_bytes_[flow_id];
}

std::unique_ptr<net::VideoChannel> ReplayLink::MakeChannel(
    net::ChannelConfig config) const {
  config.link.bandwidth_scale = bandwidth_scale;
  config.gcc.initial_bps =
      trace->MeanMbps() * bandwidth_scale * 1e6 * 0.8 / flows;
  if (shared != nullptr) return shared->Connect(config);
  return std::make_unique<net::VideoChannel>(
      trace->Replayed(accel, offset_ms), config);
}

}  // namespace livo::runtime
