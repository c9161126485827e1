#include "fec/fec.h"

#include <algorithm>
#include <cmath>

namespace livo::fec {
namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

int FragmentCount(std::size_t frame_size, std::size_t mtu) {
  return static_cast<int>(
      std::max<std::size_t>(1, (frame_size + mtu - 1) / mtu));
}

}  // namespace

double ChooseRedundancy(const FecPolicy& policy, double loss_estimate,
                        double utility) {
  if (!policy.enabled) return 0.0;
  const double weight =
      kUtilityFloor + (1.0 - kUtilityFloor) * Clamp01(utility);
  const double r = kLossGain * Clamp01(loss_estimate) * weight;
  return std::clamp(r, 0.0, kRedundancyCap);
}

double PlanningOverhead(const FecPolicy& policy, double mean_loss_rate) {
  return ChooseRedundancy(policy, mean_loss_rate, 1.0);
}

int ParityCount(int media_fragments, double redundancy) {
  if (media_fragments <= 0 || redundancy <= 0.0) return 0;
  const int p = static_cast<int>(
      std::ceil(static_cast<double>(media_fragments) * redundancy));
  return std::clamp(p, 0, media_fragments);
}

std::size_t FragmentSize(std::size_t frame_size, std::size_t mtu,
                         std::size_t i) {
  const std::size_t offset = i * mtu;
  if (offset >= frame_size) return 0;
  return std::min(mtu, frame_size - offset);
}

std::vector<std::size_t> ParityPayloadSizes(std::size_t frame_size,
                                            std::size_t mtu,
                                            int parity_count) {
  std::vector<std::size_t> sizes(static_cast<std::size_t>(
                                     std::max(0, parity_count)),
                                 0);
  if (parity_count <= 0) return sizes;
  const int fragments = FragmentCount(frame_size, mtu);
  for (int i = 0; i < fragments; ++i) {
    const int j = i % parity_count;
    sizes[static_cast<std::size_t>(j)] =
        std::max(sizes[static_cast<std::size_t>(j)],
                 FragmentSize(frame_size, mtu, static_cast<std::size_t>(i)));
  }
  return sizes;
}

std::vector<std::vector<std::uint8_t>> EncodeParity(
    const std::vector<std::uint8_t>& data, std::size_t mtu, int parity_count) {
  std::vector<std::vector<std::uint8_t>> parity(
      static_cast<std::size_t>(std::max(0, parity_count)));
  if (parity_count <= 0) return parity;
  const std::vector<std::size_t> sizes =
      ParityPayloadSizes(data.size(), mtu, parity_count);
  for (int j = 0; j < parity_count; ++j) {
    parity[static_cast<std::size_t>(j)]
        .assign(sizes[static_cast<std::size_t>(j)], 0);
  }
  const int fragments = FragmentCount(data.size(), mtu);
  for (int i = 0; i < fragments; ++i) {
    std::vector<std::uint8_t>& out =
        parity[static_cast<std::size_t>(i % parity_count)];
    const std::size_t offset = static_cast<std::size_t>(i) * mtu;
    const std::size_t n =
        FragmentSize(data.size(), mtu, static_cast<std::size_t>(i));
    for (std::size_t b = 0; b < n; ++b) {
      out[b] = static_cast<std::uint8_t>(out[b] ^ data[offset + b]);
    }
  }
  return parity;
}

bool CanRecover(const std::vector<bool>& have, int parity_count, int group) {
  return MissingFragment(have, parity_count, group) >= 0;
}

int MissingFragment(const std::vector<bool>& have, int parity_count,
                    int group) {
  if (parity_count <= 0) return -1;
  int missing = -1;
  for (std::size_t i = static_cast<std::size_t>(group); i < have.size();
       i += static_cast<std::size_t>(parity_count)) {
    if (have[i]) continue;
    if (missing >= 0) return -1;  // two gaps: XOR cannot disentangle them
    missing = static_cast<int>(i);
  }
  return missing;
}

std::vector<std::uint8_t> RecoverFragment(
    const std::vector<std::uint8_t>& data, std::size_t mtu,
    const std::vector<std::uint8_t>& parity_payload, int parity_count,
    int group, int missing) {
  std::vector<std::uint8_t> out = parity_payload;
  const int fragments = FragmentCount(data.size(), mtu);
  for (int i = group; i < fragments; i += parity_count) {
    if (i == missing) continue;
    const std::size_t offset = static_cast<std::size_t>(i) * mtu;
    const std::size_t n =
        FragmentSize(data.size(), mtu, static_cast<std::size_t>(i));
    for (std::size_t b = 0; b < n && b < out.size(); ++b) {
      out[b] = static_cast<std::uint8_t>(out[b] ^ data[offset + b]);
    }
  }
  out.resize(FragmentSize(data.size(), mtu,
                          static_cast<std::size_t>(std::max(0, missing))));
  return out;
}

}  // namespace livo::fec
