#include "sim/nettrace.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.h"
#include "util/stats.h"

namespace livo::sim {

double BandwidthTrace::MeanMbps() const {
  return mbps.empty() ? 0.0
                      : std::accumulate(mbps.begin(), mbps.end(), 0.0) /
                            static_cast<double>(mbps.size());
}

double BandwidthTrace::MinMbps() const {
  return mbps.empty() ? 0.0 : *std::min_element(mbps.begin(), mbps.end());
}

double BandwidthTrace::MaxMbps() const {
  return mbps.empty() ? 0.0 : *std::max_element(mbps.begin(), mbps.end());
}

double BandwidthTrace::PercentileMbps(double p) const {
  return util::Percentile(mbps, p);
}

double BandwidthTrace::AtMs(double time_ms) const {
  if (mbps.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::max(0.0, time_ms / sample_interval_ms));
  return mbps[idx % mbps.size()];
}

BandwidthTrace BandwidthTrace::Scaled(double factor) const {
  BandwidthTrace out = *this;
  for (double& v : out.mbps) v *= factor;
  return out;
}

BandwidthTrace BandwidthTrace::TimeCompressed(double factor) const {
  BandwidthTrace out = *this;
  out.sample_interval_ms = sample_interval_ms / factor;
  return out;
}

BandwidthTrace BandwidthTrace::Replayed(double accel, double offset_ms) const {
  BandwidthTrace out = TimeCompressed(std::max(1e-9, accel));
  if (offset_ms > 0.0 && !out.mbps.empty()) {
    const auto shift =
        static_cast<std::size_t>(offset_ms / out.sample_interval_ms) %
        out.mbps.size();
    std::rotate(out.mbps.begin(),
                out.mbps.begin() + static_cast<std::ptrdiff_t>(shift),
                out.mbps.end());
  }
  return out;
}

namespace {

// Ornstein-Uhlenbeck mean-reverting walk clipped to [floor, ceiling].
BandwidthTrace MeanRevertingTrace(const std::string& name, double duration_s,
                                  double mean, double floor, double ceiling,
                                  double volatility, double reversion,
                                  std::uint64_t seed) {
  BandwidthTrace trace;
  trace.name = name;
  const auto samples =
      static_cast<std::size_t>(duration_s * 1000.0 / trace.sample_interval_ms);
  trace.mbps.reserve(samples);
  util::Rng rng(seed);
  double value = mean;
  for (std::size_t i = 0; i < samples; ++i) {
    value += reversion * (mean - value) + rng.Gaussian(0.0, volatility);
    value = std::clamp(value, floor, ceiling);
    trace.mbps.push_back(value);
  }
  return trace;
}

}  // namespace

BandwidthTrace MakeTrace1(double duration_s, std::uint64_t seed) {
  // Stationary home Wi-Fi: moderate variability around a high mean.
  // Targets (Table 4): mean 216.9, min 151.9, max 262.2, p10 191.5, p90 234.4.
  return MeanRevertingTrace("trace-1", duration_s, 216.9, 151.91, 262.19,
                            7.5, 0.08, seed);
}

BandwidthTrace MakeTrace2(double duration_s, std::uint64_t seed) {
  // Mall mobility: good throughput most of the time with sporadic deep
  // fades (walking behind obstacles), producing the long lower tail.
  // Targets (Table 4): mean 89.2, min 36.4, max 106.4, p10 80.5, p90 98.1.
  BandwidthTrace trace = MeanRevertingTrace("trace-2", duration_s, 90.5,
                                            36.35, 106.37, 3.4, 0.07, seed);
  util::Rng rng(seed ^ 0xfadefade);
  // Inject fades: ~2% of time in a fade, each 0.5-2 s deep drop.
  std::size_t i = 0;
  while (i < trace.mbps.size()) {
    if (rng.Chance(0.010)) {
      const auto fade_len = static_cast<std::size_t>(rng.UniformInt(5, 20));
      const double depth = rng.Uniform(0.4, 0.75);  // fraction removed
      for (std::size_t j = i; j < std::min(i + fade_len, trace.mbps.size());
           ++j) {
        // Soft-edged dip.
        const double edge =
            std::sin(3.14159265358979323846 * double(j - i + 1) / double(fade_len + 1));
        trace.mbps[j] = std::max(36.35, trace.mbps[j] * (1.0 - depth * edge));
      }
      i += fade_len;
    } else {
      ++i;
    }
  }
  return trace;
}

std::vector<BandwidthTrace> StandardTraces(double duration_s) {
  return {MakeTrace2(duration_s), MakeTrace1(duration_s)};
}

}  // namespace livo::sim
