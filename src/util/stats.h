// Lightweight descriptive statistics used throughout the evaluation harness
// (mean/std of PSSIM, stall rates, fps, trace percentiles, stage latencies).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace livo::util {

// Incremental mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  void Reset() { *this = RunningStats{}; }

  // Rebuilds an accumulator from externally collected moments (n >= 1);
  // used by obs::Histogram, which tracks moments with atomics and converts
  // to RunningStats at snapshot time.
  static RunningStats FromMoments(std::size_t n, double mean, double m2,
                                  double min, double max, double sum) {
    RunningStats s;
    s.n_ = n;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    s.sum_ = sum;
    return s;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Percentile of a sample set using linear interpolation between order
// statistics. p is in [0, 100]. Returns 0 for an empty sample.
//
// Partially reorders `values` (std::nth_element): O(n) instead of the
// copy + full O(n log n) sort this used to do on every per-aggregate call
// over per-frame latency vectors. Callers that must preserve order use the
// const overload below, which pays one copy but still selects in O(n).
inline double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  if (values.size() == 1) return values[0];
  const double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double v_lo = *lo_it;
  if (frac == 0.0 || lo + 1 >= values.size()) return v_lo;
  // After nth_element everything right of lo_it is >= v_lo, so the next
  // order statistic is the minimum of that suffix.
  const double v_hi = *std::min_element(lo_it + 1, values.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

inline double Percentile(const std::vector<double>& values, double p) {
  std::vector<double> scratch(values);
  return Percentile(scratch, p);
}

// Clamps x to [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

}  // namespace livo::util
