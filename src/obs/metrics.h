// Thread-safe metrics registry (livo::obs).
//
// Three instrument kinds, all with lock-free hot paths:
//   * Counter   — monotonically increasing uint64 (packets, bytes, frames).
//   * Gauge     — last-written double (current split, bandwidth estimate).
//   * Histogram — fixed log-scale buckets plus exact running moments
//                 (count/sum/sum-of-squares/min/max), so snapshots expose
//                 both approximate percentiles and an exact
//                 util::RunningStats view.
//
// Instruments are created on first lookup and live for the process;
// Registry::ResetAll() zeroes values but keeps every handle valid, so call
// sites may cache `Counter&` references across runs (benches reset between
// schemes). Lookup takes a mutex — cache the reference outside hot loops:
//
//   static obs::Counter& packets =
//       obs::Registry::Get().GetCounter("net.packets_sent");
//   packets.Add();
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "util/stats.h"

namespace livo::obs {

// Writes `s` as the body of a JSON string: quotes, backslashes and every
// control character escaped, so a JSONL line stays one line.
void JsonEscape(std::ostream& os, const std::string& s);

// JSON forbids NaN/Inf literals; writers emit 0 in their place.
double JsonSafe(double x);

class Counter {
 public:
  void Add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(double x) { v_.store(x, std::memory_order_relaxed); }
  void Add(double dx) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + dx,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

// Log-scale histogram: bucket 0 holds values <= kMinValue, then two buckets
// per octave (boundaries kMinValue * 2^(i/2)) up to ~1.4e11 * kMinValue.
// With kMinValue = 1e-3 this spans sub-microsecond stage latencies in ms
// through multi-gigabyte byte counts in one fixed layout.
class Histogram {
 public:
  static constexpr int kBucketCount = 96;
  static constexpr double kMinValue = 1e-3;
  static constexpr double kBucketsPerOctave = 2.0;

  void Observe(double x);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  // Exact moments assembled into the repo's standard accumulator.
  util::RunningStats ToRunningStats() const;

  // Percentile estimated by linear interpolation inside the containing
  // bucket; exact for the min/max endpoints. p in [0, 100].
  double ApproxPercentile(double p) const;

  std::uint64_t BucketCount(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  static double BucketLowerBound(int i);

  void Reset();

 private:
  static int BucketIndex(double x);

  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> sum_sq_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Point-in-time copy of every instrument, safe to hold across ResetAll().
struct HistogramBucket {
  double lo = 0.0;  // inclusive lower edge
  double hi = 0.0;  // exclusive upper edge (observed max for the last one)
  std::uint64_t count = 0;
};

struct HistogramSnapshot {
  std::string name;
  util::RunningStats stats;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<HistogramBucket> buckets;  // non-empty buckets only
};

struct TimeSeriesSnapshot {
  std::string name;
  double grid_ms = 0.0;
  std::uint64_t evicted = 0;
  std::vector<TimeSeriesPoint> points;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<TimeSeriesSnapshot> timeseries;

  // nullptr / zero defaults when the name is absent.
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
  std::uint64_t CounterValue(const std::string& name) const;
  const TimeSeriesSnapshot* FindTimeSeries(const std::string& name) const;
};

class Registry {
 public:
  // Process-wide registry; individual Registry instances can be created
  // for tests that need isolation.
  static Registry& Get();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);
  // `grid_ms` applies only on first creation; later lookups return the
  // existing series regardless of the grid they ask for.
  TimeSeries& GetTimeSeries(const std::string& name,
                            double grid_ms = TimeSeries::kDefaultGridMs);

  MetricsSnapshot Snapshot() const;

  // Zeroes all values; never invalidates references handed out before.
  void ResetAll();

  // Clears just the time-series rings (run boundaries re-arm them without
  // disturbing cumulative counters).
  void ResetTimeSeries();

  // Line-delimited JSON, one instrument per line:
  //   {"type":"counter","name":"net.bytes_sent","value":123}
  //   {"type":"histogram","name":"sender.encode_ms","count":48,...}
  void WriteJsonl(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  // node-based maps: pointers stay valid while entries are never erased.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<TimeSeries>> timeseries_;
};

}  // namespace livo::obs
