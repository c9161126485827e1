// Virtual-time series instrument (livo::obs).
//
// A TimeSeries samples a value against the run's *virtual* clock on a
// fixed millisecond grid. Samples landing in the same grid cell overwrite
// each other (last-write-wins), so high-rate call sites collapse to one
// point per cell and memory stays bounded: the ring keeps the most recent
// kCapacity points and counts what it evicts.
//
// Sampling is off by default. When disabled, Sample() is a single relaxed
// atomic load — cheap enough to leave in hot paths unconditionally:
//
//   static obs::TimeSeries& depth =
//       obs::Registry::Get().GetTimeSeries("runtime.queue_depth");
//   depth.Sample(now_ms, static_cast<double>(QueueDepth()));
//
// Enable process-wide with SetTimeSeriesEnabled(true) (LIVO_TRACE=1 does
// it through obs::AutoInitFromEnv).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace livo::obs {

// Process-wide master switch; one relaxed load on the sampling fast path.
bool TimeSeriesEnabled();
void SetTimeSeriesEnabled(bool enabled);

struct TimeSeriesPoint {
  double t_ms = 0.0;
  double value = 0.0;
};

class TimeSeries {
 public:
  // 4096 points * 16 B = 64 KiB per series; at the default 5 ms grid that
  // covers ~20 s of densely-sampled virtual time per series.
  static constexpr std::size_t kCapacity = 4096;
  static constexpr double kDefaultGridMs = 5.0;

  explicit TimeSeries(double grid_ms = kDefaultGridMs);

  // Records `value` at virtual time `t_ms`. No-op while sampling is
  // disabled. Within one grid cell the newest sample wins; a sample older
  // than the newest recorded cell is dropped (the ring is append-only).
  void Sample(double t_ms, double value);

  double grid_ms() const { return grid_ms_; }

  // Oldest-first copy of the retained points.
  std::vector<TimeSeriesPoint> Points() const;

  // Points evicted by ring wrap-around since the last Reset().
  std::uint64_t evicted() const;

  void Reset();

 private:
  const double grid_ms_;
  mutable std::mutex mu_;
  std::vector<TimeSeriesPoint> ring_;  // capacity kCapacity once warm
  std::size_t head_ = 0;               // insert position once wrapped
  bool wrapped_ = false;
  std::int64_t last_cell_ = INT64_MIN;  // grid cell of the newest point
  std::uint64_t evicted_ = 0;
};

}  // namespace livo::obs
