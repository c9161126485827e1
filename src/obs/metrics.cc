#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace livo::obs {
namespace {

// Lock-free fold of `x` into an atomic double via `pick` (min/max/plus).
template <typename Fold>
void AtomicFold(std::atomic<double>& slot, double x, Fold pick) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, pick(cur, x),
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void JsonEscape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
             << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

double JsonSafe(double x) { return std::isfinite(x) ? x : 0.0; }

int Histogram::BucketIndex(double x) {
  if (!(x > kMinValue)) return 0;  // also catches NaN and negatives
  const int i =
      1 + static_cast<int>(std::log2(x / kMinValue) * kBucketsPerOctave);
  return std::clamp(i, 1, kBucketCount - 1);
}

double Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0.0;
  return kMinValue * std::exp2(static_cast<double>(i - 1) / kBucketsPerOctave);
}

void Histogram::Observe(double x) {
  buckets_[static_cast<std::size_t>(BucketIndex(x))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicFold(sum_, x, [](double a, double b) { return a + b; });
  AtomicFold(sum_sq_, x * x, [](double a, double b) { return a + b; });
  AtomicFold(min_, x, [](double a, double b) { return std::min(a, b); });
  AtomicFold(max_, x, [](double a, double b) { return std::max(a, b); });
}

util::RunningStats Histogram::ToRunningStats() const {
  const std::uint64_t n = count();
  if (n == 0) return {};
  const double s = sum();
  const double mean = s / static_cast<double>(n);
  // m2 from raw moments; clamp the catastrophic-cancellation residue.
  const double m2 = std::max(
      0.0, sum_sq_.load(std::memory_order_relaxed) -
               mean * mean * static_cast<double>(n));
  return util::RunningStats::FromMoments(
      n, mean, m2, min_.load(std::memory_order_relaxed),
      max_.load(std::memory_order_relaxed), s);
}

double Histogram::ApproxPercentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  const double target = util::Clamp(p / 100.0, 0.0, 1.0) *
                        static_cast<double>(n);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t in_bucket = BucketCount(i);
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      const double frac =
          in_bucket > 0
              ? (target - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket)
              : 0.0;
      const double b_lo = BucketLowerBound(i);
      const double b_hi =
          i + 1 < kBucketCount ? BucketLowerBound(i + 1) : hi;
      const double v = b_lo + frac * (b_hi - b_lo);
      return util::Clamp(v, lo, hi);
    }
    seen += in_bucket;
  }
  return hi;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  sum_sq_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const TimeSeriesSnapshot* MetricsSnapshot::FindTimeSeries(
    const std::string& name) const {
  for (const auto& ts : timeseries) {
    if (ts.name == name) return &ts;
  }
  return nullptr;
}

Registry& Registry::Get() {
  static Registry* instance = new Registry();  // leaked: outlives all users
  return *instance;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

TimeSeries& Registry::GetTimeSeries(const std::string& name, double grid_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = timeseries_[name];
  if (!slot) slot = std::make_unique<TimeSeries>(grid_ms);
  return *slot;
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.stats = h->ToRunningStats();
    hs.p50 = h->ApproxPercentile(50.0);
    hs.p90 = h->ApproxPercentile(90.0);
    hs.p99 = h->ApproxPercentile(99.0);
    for (int i = 0; i < Histogram::kBucketCount; ++i) {
      const std::uint64_t in_bucket = h->BucketCount(i);
      if (in_bucket == 0) continue;
      HistogramBucket b;
      b.lo = Histogram::BucketLowerBound(i);
      b.hi = i + 1 < Histogram::kBucketCount
                 ? Histogram::BucketLowerBound(i + 1)
                 : hs.stats.max();
      b.count = in_bucket;
      hs.buckets.push_back(b);
    }
    snap.histograms.push_back(std::move(hs));
  }
  for (const auto& [name, ts] : timeseries_) {
    TimeSeriesSnapshot tss;
    tss.name = name;
    tss.grid_ms = ts->grid_ms();
    tss.evicted = ts->evicted();
    tss.points = ts->Points();
    snap.timeseries.push_back(std::move(tss));
  }
  return snap;
}

void Registry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, ts] : timeseries_) ts->Reset();
}

void Registry::ResetTimeSeries() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, ts] : timeseries_) ts->Reset();
}

void Registry::WriteJsonl(std::ostream& os) const {
  const MetricsSnapshot snap = Snapshot();
  const auto flags = os.flags();
  const auto precision = os.precision(12);
  for (const auto& [name, value] : snap.counters) {
    os << "{\"type\":\"counter\",\"name\":\"";
    JsonEscape(os, name);
    os << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    os << "{\"type\":\"gauge\",\"name\":\"";
    JsonEscape(os, name);
    os << "\",\"value\":" << JsonSafe(value) << "}\n";
  }
  for (const auto& h : snap.histograms) {
    os << "{\"type\":\"histogram\",\"name\":\"";
    JsonEscape(os, h.name);
    os << "\",\"count\":" << h.stats.count()
       << ",\"mean\":" << JsonSafe(h.stats.mean())
       << ",\"stddev\":" << JsonSafe(h.stats.stddev())
       << ",\"min\":" << JsonSafe(h.stats.min())
       << ",\"max\":" << JsonSafe(h.stats.max())
       << ",\"p50\":" << JsonSafe(h.p50) << ",\"p90\":" << JsonSafe(h.p90)
       << ",\"p99\":" << JsonSafe(h.p99) << ",\"buckets\":[";
    bool first = true;
    for (const HistogramBucket& b : h.buckets) {
      if (!first) os << ",";
      first = false;
      os << "[" << JsonSafe(b.lo) << "," << JsonSafe(b.hi) << "," << b.count
         << "]";
    }
    os << "]}\n";
  }
  for (const auto& ts : snap.timeseries) {
    os << "{\"type\":\"timeseries\",\"name\":\"";
    JsonEscape(os, ts.name);
    os << "\",\"grid_ms\":" << JsonSafe(ts.grid_ms)
       << ",\"evicted\":" << ts.evicted << ",\"points\":[";
    bool first = true;
    for (const TimeSeriesPoint& p : ts.points) {
      if (!first) os << ",";
      first = false;
      os << "[" << JsonSafe(p.t_ms) << "," << JsonSafe(p.value) << "]";
    }
    os << "]}\n";
  }
  os.precision(precision);
  os.flags(flags);
}

}  // namespace livo::obs
