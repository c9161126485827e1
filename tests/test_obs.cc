// Tests for the livo::obs telemetry subsystem: metrics registry semantics,
// concurrent updates, scoped spans, exporter well-formedness, and the
// leveled logger.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "report.h"

namespace livo::obs {
namespace {

// ---------------------------------------------------------------------------
// Loads `text` with the JSON parser livo_report uses, so every exporter
// check proves its output loads in the tool that reads it.
::testing::AssertionResult ParsesAsJson(const std::string& text) {
  report::JsonValue value;
  std::string error;
  if (report::ParseJson(text, &value, &error)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << error;
}

TEST(JsonChecker, SanityOnKnownInputs) {
  EXPECT_TRUE(ParsesAsJson(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":null})"));
  EXPECT_FALSE(ParsesAsJson(R"({"a":1)"));
  EXPECT_FALSE(ParsesAsJson(R"({"a":1}},)"));
}

// ---------------------------------------------------------------------------
// Instruments.

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, ExactMomentsMatchRunningStats) {
  Histogram h;
  util::RunningStats expected;
  for (double x : {0.5, 1.0, 2.0, 4.0, 8.0, 100.0}) {
    h.Observe(x);
    expected.Add(x);
  }
  const util::RunningStats got = h.ToRunningStats();
  EXPECT_EQ(got.count(), expected.count());
  EXPECT_NEAR(got.mean(), expected.mean(), 1e-9);
  EXPECT_NEAR(got.stddev(), expected.stddev(), 1e-6);
  EXPECT_DOUBLE_EQ(got.min(), 0.5);
  EXPECT_DOUBLE_EQ(got.max(), 100.0);
}

TEST(Histogram, ApproxPercentileIsMonotonicAndBounded) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(i * 0.1);  // 0.1 .. 100
  double prev = h.ApproxPercentile(0.0);
  EXPECT_GE(prev, 0.1 - 1e-9);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double v = h.ApproxPercentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    EXPECT_LE(v, 100.0 + 1e-9);
    prev = v;
  }
  // Log-scale buckets are coarse (2 per octave) but the median of a
  // uniform 0.1..100 sample must land in the right octave.
  const double p50 = h.ApproxPercentile(50.0);
  EXPECT_GT(p50, 25.0);
  EXPECT_LT(p50, 80.0);
}

TEST(Histogram, BucketBoundsAreMonotonic) {
  double prev = Histogram::BucketLowerBound(1);
  for (int i = 2; i < Histogram::kBucketCount; ++i) {
    const double b = Histogram::BucketLowerBound(i);
    EXPECT_GT(b, prev);
    prev = b;
  }
}

TEST(Histogram, TinyValuesLandInUnderflowBucket) {
  Histogram h;
  h.Observe(0.0);
  h.Observe(1e-9);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.count(), 2u);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(Registry, SameNameReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.GetCounter("x");
  Counter& b = reg.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, ResetAllZeroesButKeepsHandlesValid) {
  Registry reg;
  Counter& c = reg.GetCounter("c");
  Gauge& g = reg.GetGauge("g");
  Histogram& h = reg.GetHistogram("h");
  c.Add(7);
  g.Set(1.5);
  h.Observe(2.0);
  reg.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // Handles still work after the reset.
  c.Add();
  EXPECT_EQ(reg.Snapshot().CounterValue("c"), 1u);
}

TEST(Registry, SnapshotFindsInstrumentsByName) {
  Registry reg;
  reg.GetCounter("frames").Add(5);
  reg.GetHistogram("lat").Observe(3.0);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("frames"), 5u);
  EXPECT_EQ(snap.CounterValue("absent"), 0u);
  const HistogramSnapshot* lat = snap.FindHistogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->stats.count(), 1u);
  EXPECT_EQ(snap.FindHistogram("absent"), nullptr);
}

TEST(Registry, ConcurrentIncrementsAreExact) {
  Registry reg;
  Counter& c = reg.GetCounter("hits");
  Histogram& h = reg.GetHistogram("obs");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Add();
        h.Observe(1.0);
        // Lookup from several threads must also be safe.
        reg.GetCounter("hits");
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), kThreads * kPerThread * 1.0, 1e-6);
}

TEST(Registry, WriteJsonlEmitsOneValidObjectPerLine) {
  Registry reg;
  reg.GetCounter("net.bytes_sent").Add(123);
  reg.GetGauge("gcc.estimate_bps").Set(2.5e6);
  reg.GetHistogram("sender.encode_ms").Observe(4.0);
  std::ostringstream out;
  reg.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("net.bytes_sent"), std::string::npos);
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(ParsesAsJson(line)) << line;
    ++count;
  }
  EXPECT_EQ(count, 3);
}

// ---------------------------------------------------------------------------
// Spans and tracing.

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DrainEvents();  // discard anything recorded by earlier tests
    SetTraceEnabled(true);
  }
  void TearDown() override {
    SetTraceEnabled(false);
    DrainEvents();
  }
};

TEST_F(TraceTest, SpanRecordsDurationAndNestingDepth) {
  {
    LIVO_SPAN("outer");
    LIVO_SPAN("inner");
  }
  const auto events = DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans are emitted at scope exit, so "inner" lands first.
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "outer") outer = &e;
    if (std::string(e.name) == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(outer->dur_us, 0.0);
  EXPECT_GE(inner->dur_us, 0.0);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->dur_us, inner->dur_us);
}

TEST_F(TraceTest, InstantEventsHaveNegativeDuration) {
  TraceInstant("marker");
  const auto events = DrainEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "marker");
  EXPECT_LT(events[0].dur_us, 0.0);
}

TEST_F(TraceTest, ThreadsGetDistinctIdsAndEventsSurviveJoin) {
  std::atomic<std::uint32_t> tid_a{0}, tid_b{0};
  auto worker = [](std::atomic<std::uint32_t>* out) {
    LIVO_SPAN("worker");
    (void)out;
  };
  std::thread a(worker, &tid_a), b(worker, &tid_b);
  a.join();
  b.join();
  // Both threads exited before the drain; their events must still be there.
  const auto events = DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  SetTraceEnabled(false);
  {
    LIVO_SPAN("invisible");
    TraceInstant("also_invisible");
  }
  EXPECT_TRUE(DrainEvents().empty());
}

TEST_F(TraceTest, ChromeTraceExportIsValidJson) {
  {
    LIVO_SPAN("sender.encode");
  }
  TraceInstant("net.frame_lost");
  const auto events = DrainEvents();
  std::ostringstream out;
  WriteChromeTrace(out, events);
  const std::string text = out.str();
  EXPECT_TRUE(ParsesAsJson(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("sender.encode"), std::string::npos);
  EXPECT_NE(text.find("net.frame_lost"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);  // instant event
}

TEST_F(TraceTest, InternNameIsStableAcrossCalls) {
  const char* a = InternName(std::string("pipeline.encode"));
  const char* b = InternName(std::string("pipeline.encode"));
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "pipeline.encode");
}

// ---------------------------------------------------------------------------
// Logger.

std::vector<std::pair<LogLevel, std::string>>& CapturedLogs() {
  static std::vector<std::pair<LogLevel, std::string>> logs;
  return logs;
}

void CaptureSink(LogLevel level, const std::string& line) {
  CapturedLogs().emplace_back(level, line);
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CapturedLogs().clear();
    SetLogSink(&CaptureSink);
    previous_level_ = MinLogLevel();
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetMinLogLevel(previous_level_);
  }
  LogLevel previous_level_ = LogLevel::kWarn;
};

TEST_F(LogTest, LevelsBelowMinimumAreSuppressed) {
  SetMinLogLevel(LogLevel::kWarn);
  LIVO_LOG(Debug) << "quiet";
  LIVO_LOG(Info) << "also quiet";
  LIVO_LOG(Error) << "loud";
  ASSERT_EQ(CapturedLogs().size(), 1u);
  EXPECT_EQ(CapturedLogs()[0].first, LogLevel::kError);
  EXPECT_NE(CapturedLogs()[0].second.find("loud"), std::string::npos);
}

TEST_F(LogTest, SuppressedStatementsDoNotEvaluateArguments) {
  SetMinLogLevel(LogLevel::kOff);
  int evaluations = 0;
  const auto touch = [&evaluations] {
    ++evaluations;
    return "x";
  };
  LIVO_LOG(Error) << touch();
  EXPECT_EQ(evaluations, 0);
  SetMinLogLevel(LogLevel::kError);
  LIVO_LOG(Error) << touch();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(LogTest, MessageCarriesFileAndLinePrefix) {
  SetMinLogLevel(LogLevel::kInfo);
  LIVO_LOG(Info) << "hello";
  ASSERT_EQ(CapturedLogs().size(), 1u);
  EXPECT_NE(CapturedLogs()[0].second.find("test_obs.cc"), std::string::npos);
  EXPECT_NE(CapturedLogs()[0].second.find("hello"), std::string::npos);
}

TEST(LogLevelNames, ParseRoundTrip) {
  EXPECT_EQ(ParseLogLevel("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("Info", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("nonsense", LogLevel::kError), LogLevel::kError);
}

// ---------------------------------------------------------------------------
// Time series: virtual-time samples on a fixed grid with bounded memory.

class TimeSeriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = TimeSeriesEnabled();
    SetTimeSeriesEnabled(true);
  }
  void TearDown() override { SetTimeSeriesEnabled(previous_); }
  bool previous_ = false;
};

TEST_F(TimeSeriesTest, DisabledSamplesAreDropped) {
  SetTimeSeriesEnabled(false);
  TimeSeries series;
  series.Sample(10.0, 1.0);
  EXPECT_TRUE(series.Points().empty());
  SetTimeSeriesEnabled(true);
  series.Sample(10.0, 1.0);
  EXPECT_EQ(series.Points().size(), 1u);
}

TEST_F(TimeSeriesTest, SamplesInTheSameGridCellOverwrite) {
  TimeSeries series(5.0);
  series.Sample(1.0, 10.0);
  series.Sample(3.0, 20.0);  // same 5 ms cell: last write wins
  series.Sample(7.0, 30.0);  // next cell
  const auto points = series.Points();
  ASSERT_EQ(points.size(), 2u);
  // Stored timestamps are grid-aligned (cell * grid) for determinism.
  EXPECT_DOUBLE_EQ(points[0].t_ms, 0.0);
  EXPECT_DOUBLE_EQ(points[0].value, 20.0);
  EXPECT_DOUBLE_EQ(points[1].t_ms, 5.0);
  EXPECT_DOUBLE_EQ(points[1].value, 30.0);
}

TEST_F(TimeSeriesTest, StaleSamplesAreDroppedNotReordered) {
  TimeSeries series(5.0);
  series.Sample(100.0, 1.0);
  series.Sample(10.0, 2.0);  // older grid cell: dropped
  const auto points = series.Points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0].t_ms, 100.0);
  EXPECT_DOUBLE_EQ(points[0].value, 1.0);
}

TEST_F(TimeSeriesTest, RingEvictsOldestAndCounts) {
  TimeSeries series(1.0);
  const std::size_t n = TimeSeries::kCapacity + 100;
  for (std::size_t i = 0; i < n; ++i) {
    series.Sample(static_cast<double>(i), static_cast<double>(i));
  }
  const auto points = series.Points();
  ASSERT_EQ(points.size(), TimeSeries::kCapacity);
  EXPECT_EQ(series.evicted(), 100u);
  // Oldest-first, contiguous tail of the sample stream.
  EXPECT_DOUBLE_EQ(points.front().t_ms, 100.0);
  EXPECT_DOUBLE_EQ(points.back().t_ms, static_cast<double>(n - 1));
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(points[i].t_ms, points[i - 1].t_ms + 1.0);
  }
}

TEST_F(TimeSeriesTest, RegistryDedupesAndSnapshotsSeries) {
  Registry reg;
  TimeSeries& a = reg.GetTimeSeries("ts.test.alpha");
  TimeSeries& b = reg.GetTimeSeries("ts.test.alpha");
  EXPECT_EQ(&a, &b);
  a.Sample(5.0, 42.0);
  const MetricsSnapshot snap = reg.Snapshot();
  const TimeSeriesSnapshot* ts = snap.FindTimeSeries("ts.test.alpha");
  ASSERT_NE(ts, nullptr);
  ASSERT_EQ(ts->points.size(), 1u);
  EXPECT_DOUBLE_EQ(ts->points[0].value, 42.0);
  reg.ResetTimeSeries();
  EXPECT_TRUE(a.Points().empty());
}

TEST_F(TimeSeriesTest, WriteJsonlEmitsTimeseriesLines) {
  Registry reg;
  reg.GetTimeSeries("ts.test.beta").Sample(10.0, 1.5);
  std::ostringstream out;
  reg.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"type\":\"timeseries\""), std::string::npos);
  EXPECT_NE(text.find("ts.test.beta"), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(ParsesAsJson(line)) << line;
  }
}

// ---------------------------------------------------------------------------
// Histogram bucket edges in snapshots and the JSONL exporter.

TEST(HistogramBuckets, SnapshotListsNonEmptyBucketsWithEdges) {
  Registry reg;
  Histogram& h = reg.GetHistogram("hb.lat");
  for (double v : {0.5, 0.6, 2.0, 64.0}) h.Observe(v);
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("hb.lat");
  ASSERT_NE(hs, nullptr);
  ASSERT_FALSE(hs->buckets.empty());
  std::uint64_t total = 0;
  double prev_hi = -1.0;
  for (const HistogramBucket& bucket : hs->buckets) {
    EXPECT_GT(bucket.count, 0u);  // only occupied buckets are listed
    EXPECT_LT(bucket.lo, bucket.hi);
    EXPECT_GE(bucket.lo, prev_hi - 1e-12);  // sorted, non-overlapping
    prev_hi = bucket.hi;
    total += bucket.count;
  }
  EXPECT_EQ(total, 4u);
  // Every observed value lands inside some listed bucket.
  for (double v : {0.5, 0.6, 2.0, 64.0}) {
    bool found = false;
    for (const HistogramBucket& bucket : hs->buckets) {
      if (v >= bucket.lo - 1e-12 && v <= bucket.hi + 1e-12) found = true;
    }
    EXPECT_TRUE(found) << "value " << v << " in no bucket";
  }
}

TEST(HistogramBuckets, JsonlLineCarriesPercentilesAndBuckets) {
  Registry reg;
  reg.GetHistogram("hb.jsonl").Observe(3.0);
  std::ostringstream out;
  reg.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  EXPECT_NE(text.find("\"p90\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
  EXPECT_NE(text.find("\"buckets\":[["), std::string::npos);
}

// ---------------------------------------------------------------------------
// Virtual-time stamping of spans and log lines.

class VirtualTimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearVirtualNow();
    DrainEvents();
    SetTraceEnabled(true);
  }
  void TearDown() override {
    SetTraceEnabled(false);
    ClearVirtualNow();
    DrainEvents();
  }
};

TEST_F(VirtualTimeTest, SpansCarryVirtualTimeWhenPublished) {
  SetVirtualNowMs(123.5);
  EXPECT_TRUE(HasVirtualNow());
  EXPECT_DOUBLE_EQ(VirtualNowMs(), 123.5);
  {
    LIVO_SPAN("vt.span");
  }
  TraceInstant("vt.instant");
  const auto events = DrainEvents();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) EXPECT_DOUBLE_EQ(e.vt_ms, 123.5);
}

TEST_F(VirtualTimeTest, SpansOutsideVirtualRunsAreUnstamped) {
  EXPECT_FALSE(HasVirtualNow());
  EXPECT_DOUBLE_EQ(VirtualNowMs(), -1.0);
  {
    LIVO_SPAN("vt.none");
  }
  const auto events = DrainEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(events[0].vt_ms, 0.0);
}

// Each loop thread publishes its own clock: another thread neither sees
// this thread's virtual time nor overwrites or clears it.
TEST_F(VirtualTimeTest, EachThreadPublishesItsOwnClock) {
  SetVirtualNowMs(10.0);
  bool other_saw_clock = true;
  double other_now_ms = 0.0;
  std::thread other([&] {
    other_saw_clock = HasVirtualNow();
    SetVirtualNowMs(20.0);
    other_now_ms = VirtualNowMs();
    ClearVirtualNow();
  });
  other.join();
  EXPECT_FALSE(other_saw_clock);
  EXPECT_DOUBLE_EQ(other_now_ms, 20.0);
  EXPECT_TRUE(HasVirtualNow());
  EXPECT_DOUBLE_EQ(VirtualNowMs(), 10.0);
}

TEST_F(VirtualTimeTest, ChromeTraceExportsVirtualTimeArg) {
  SetVirtualNowMs(77.0);
  {
    LIVO_SPAN("vt.exported");
  }
  std::ostringstream out;
  WriteChromeTrace(out, DrainEvents());
  EXPECT_NE(out.str().find("\"vt_ms\":77"), std::string::npos);
}

TEST_F(LogTest, LinesLeadWithVirtualTimeDuringRuns) {
  SetMinLogLevel(LogLevel::kInfo);
  SetVirtualNowMs(42.0);
  LIVO_LOG(Info) << "inside";
  ClearVirtualNow();
  LIVO_LOG(Info) << "outside";
  ASSERT_EQ(CapturedLogs().size(), 2u);
  EXPECT_NE(CapturedLogs()[0].second.find("vt=42"), std::string::npos);
  EXPECT_NE(CapturedLogs()[0].second.find("wall="), std::string::npos);
  EXPECT_EQ(CapturedLogs()[1].second.find("vt="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Frame ledger: the flight recorder behind LIVO_TRACE=1.

class FrameLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FrameLedger::Get().Reset();
    FrameLedger::Get().SetEnabled(true);
  }
  void TearDown() override {
    FrameLedger::Get().SetEnabled(false);
    FrameLedger::Get().Reset();
  }
};

TEST_F(FrameLedgerTest, DisabledRecordsNothing) {
  FrameLedger::Get().SetEnabled(false);
  FrameLedger::Get().Record(0, 0, -1, LedgerHop::kCaptured, 0.0);
  EXPECT_TRUE(FrameLedger::Get().Snapshot().empty());
}

TEST_F(FrameLedgerTest, RecordsEventsInOrder) {
  FrameLedger& ledger = FrameLedger::Get();
  ledger.Record(0, 7, -1, LedgerHop::kCaptured, 10.0);
  ledger.Record(0, 7, -1, LedgerHop::kEncoded, 10.0, 1234, true);
  ledger.Record(0, 7, -1, LedgerHop::kPairComplete, 35.0, 1234, true);
  ledger.Record(0, 7, 1, LedgerHop::kForwarded, 35.0, 1234, true);
  const auto events = ledger.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].hop, LedgerHop::kCaptured);
  EXPECT_EQ(events[3].hop, LedgerHop::kForwarded);
  EXPECT_EQ(events[3].subscriber, 1);
  EXPECT_EQ(events[3].bytes, 1234u);
  EXPECT_TRUE(events[3].keyframe);
}

TEST_F(FrameLedgerTest, FinalizeClosesOpenPairsAndForwards) {
  FrameLedger& ledger = FrameLedger::Get();
  // Pair (0,1): encoded but never completed at the SFU -> lost_uplink.
  ledger.Record(0, 1, -1, LedgerHop::kCaptured, 0.0);
  ledger.Record(0, 1, -1, LedgerHop::kEncoded, 0.0, 100);
  // Pair (0,2): forwarded to subscriber 1 but never displayed -> stalled.
  ledger.Record(0, 2, -1, LedgerHop::kCaptured, 33.0);
  ledger.Record(0, 2, -1, LedgerHop::kEncoded, 33.0, 100);
  ledger.Record(0, 2, -1, LedgerHop::kPairComplete, 50.0, 100);
  ledger.Record(0, 2, 1, LedgerHop::kForwarded, 50.0, 100);
  // Pair (0,3): fully closed; finalize must not touch it.
  ledger.Record(0, 3, -1, LedgerHop::kCaptured, 66.0);
  ledger.Record(0, 3, -1, LedgerHop::kEncoded, 66.0, 100);
  ledger.Record(0, 3, -1, LedgerHop::kPairComplete, 80.0, 100);
  ledger.Record(0, 3, 1, LedgerHop::kForwarded, 80.0, 100);
  ledger.Record(0, 3, 1, LedgerHop::kDelivered, 90.0, 50);
  ledger.Record(0, 3, 1, LedgerHop::kDisplayed, 95.0, 100);

  ledger.FinalizeRun(200.0);
  int lost = 0, stalled = 0;
  for (const LedgerEvent& e : ledger.Snapshot()) {
    if (e.hop == LedgerHop::kLostUplink) {
      ++lost;
      EXPECT_EQ(e.frame, 1);
      EXPECT_DOUBLE_EQ(e.t_ms, 200.0);
    }
    if (e.hop == LedgerHop::kStalled) {
      ++stalled;
      EXPECT_EQ(e.frame, 2);
      EXPECT_EQ(e.subscriber, 1);
    }
  }
  EXPECT_EQ(lost, 1);
  EXPECT_EQ(stalled, 1);
}

TEST_F(FrameLedgerTest, WriteJsonlEmitsOneValidObjectPerHop) {
  FrameLedger& ledger = FrameLedger::Get();
  ledger.Record(2, 5, -1, LedgerHop::kCaptured, 12.5);
  ledger.Record(2, 5, 0, LedgerHop::kDroppedBudget, 40.0, 999, false);
  std::ostringstream out;
  ledger.WriteJsonl(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"hop\":\"captured\""), std::string::npos);
  EXPECT_NE(text.find("\"hop\":\"dropped_budget\""), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(ParsesAsJson(line)) << line;
    ++count;
  }
  EXPECT_EQ(count, 2);
}

TEST_F(FrameLedgerTest, HopNamesAreStableLowercaseIdentifiers) {
  for (int hop = 0; hop <= static_cast<int>(LedgerHop::kStalled); ++hop) {
    const std::string name = LedgerHopName(static_cast<LedgerHop>(hop));
    EXPECT_FALSE(name.empty());
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << name;
    }
  }
}

}  // namespace
}  // namespace livo::obs
