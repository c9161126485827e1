// Tests for tools/livo_report: the JSON value parser, telemetry loading,
// the invariant checker (including deliberately corrupted ledgers, per
// the acceptance criteria), and the analyzer's drop attribution.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "conference/conference.h"
#include "conference/telemetry.h"
#include "obs/obs.h"
#include "report.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::report {
namespace {

// ---- JSON parser units ----

TEST(ReportJson, ParsesScalarsArraysAndObjects) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"a":1.5,"b":"x\"y","c":[1,2],"d":true,"e":null,)"
                        R"("u":"\u00e9\u20ac\ud83d\ude00"})",
                        &v, &error))
      << error;
  EXPECT_DOUBLE_EQ(v.Num("a"), 1.5);
  EXPECT_EQ(v.Str("b"), "x\"y");
  // \u escapes decode to UTF-8; a surrogate pair is one 4-byte sequence.
  EXPECT_EQ(v.Str("u"), "\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
  const JsonValue* c = v.Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->array.size(), 2u);
  EXPECT_DOUBLE_EQ(c->array[1].number, 2.0);
  EXPECT_TRUE(v.Bool("d"));
  EXPECT_EQ(v.Find("e")->kind, JsonValue::Kind::kNull);
  // Defaults for absent keys.
  EXPECT_DOUBLE_EQ(v.Num("missing", -3.0), -3.0);
  EXPECT_EQ(v.Str("missing", "fb"), "fb");
}

TEST(ReportJson, RejectsMalformedInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(R"({"a":1)", &v, &error));
  EXPECT_FALSE(ParseJson(R"({"a" 1})", &v, &error));
  EXPECT_FALSE(ParseJson(R"([1,2)", &v, &error));
  EXPECT_FALSE(ParseJson(R"({"a":1} trailing)", &v, &error));
  EXPECT_FALSE(ParseJson("", &v, &error));
  EXPECT_FALSE(ParseJson(R"("\u12g4")", &v, &error));
  EXPECT_FALSE(ParseJson(R"("\ud83d")", &v, &error));
  EXPECT_FALSE(ParseJson(R"("\ud83dx")", &v, &error));
  EXPECT_FALSE(ParseJson(R"("\ud83d\u0041")", &v, &error));
  EXPECT_FALSE(ParseJson(R"("\ude00\ud83d")", &v, &error));
}

TEST(ReportJson, ParsesNegativeAndExponentNumbers) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"([-2.5e3,0.001,-0])", &v, &error)) << error;
  ASSERT_EQ(v.array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.array[0].number, -2500.0);
  EXPECT_DOUBLE_EQ(v.array[1].number, 0.001);
}

// ---- LoadTelemetry on hand-written lines ----

TEST(ReportLoad, ClassifiesEveryLineTypeAndKeepsParseErrors) {
  std::istringstream in(
      "{\"type\":\"run\",\"scheme\":\"LiVo-SFU\",\"parties\":3,"
      "\"interval_ms\":100,\"pairs_completed\":2,\"pairs_forwarded\":4}\n"
      "{\"type\":\"stream\",\"subscriber\":1,\"origin\":0,\"expected\":5}\n"
      "{\"type\":\"audit\",\"subscriber\":1,\"start_ms\":0,"
      "\"budget_bytes\":100,\"credit_bytes\":0,\"forwarded_bytes\":50,"
      "\"shares\":[0.5,0.5]}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":3,\"subscriber\":-1,"
      "\"hop\":\"captured\",\"t_ms\":33.5,\"bytes\":0,\"keyframe\":false}\n"
      "{\"type\":\"timeseries\",\"name\":\"x.y\",\"grid_ms\":5,"
      "\"evicted\":0,\"points\":[[0,1],[5,2]]}\n"
      "this is not json\n");
  const Telemetry t = LoadTelemetry(in);
  EXPECT_TRUE(t.run.present);
  EXPECT_EQ(t.run.parties, 3);
  EXPECT_EQ(t.run.pairs_forwarded, 4u);
  ASSERT_EQ(t.streams.size(), 1u);
  EXPECT_EQ(t.streams[0].expected, 5u);
  ASSERT_EQ(t.audits.size(), 1u);
  ASSERT_EQ(t.audits[0].shares.size(), 2u);
  ASSERT_EQ(t.hops.size(), 1u);
  EXPECT_EQ(t.hops[0].hop, "captured");
  EXPECT_DOUBLE_EQ(t.hops[0].t_ms, 33.5);
  ASSERT_EQ(t.series.size(), 1u);
  ASSERT_EQ(t.series[0].points.size(), 2u);
  ASSERT_EQ(t.parse_errors.size(), 1u);
  // A parse error is itself an invariant violation in --check mode.
  EXPECT_FALSE(CheckInvariants(t).empty());
}

// Regression: the telemetry writer escaped only quotes and backslashes,
// so a newline in the scheme name split the run line in two and the
// loader saw two parse errors and no run. obs::JsonEscape writes \n and \t
// as such but \r and \001 as \u00XX, which the loader once read as '?'.
TEST(ReportLoad, SchemeWithControlCharactersRoundTrips) {
  for (const char* scheme : {"a\nb\tc", "a\rb\001c"}) {
    conference::ConferenceResult result;
    result.scheme = scheme;
    std::stringstream telemetry;
    conference::WriteConferenceTelemetry(telemetry, result, 100.0);
    const Telemetry t = LoadTelemetry(telemetry);
    EXPECT_TRUE(t.parse_errors.empty());
    EXPECT_TRUE(t.run.present);
    EXPECT_EQ(t.run.scheme, result.scheme);
  }
}

// ---- End-to-end: real conference -> telemetry -> checker ----

conference::ConferenceResult RunTracedConference(int parties = 4,
                                                 int regions = 1) {
  sim::ScaleProfile profile;
  profile.camera_count = 4;
  profile.camera_width = 48;
  profile.camera_height = 40;
  core::LiVoConfig config;
  config.layout = image::TileLayout(profile.camera_count, profile.camera_width,
                                    profile.camera_height);
  const std::vector<std::string> videos = {"band2", "toddler4", "dance5",
                                           "office1"};
  const std::vector<sim::TraceStyle> styles = {
      sim::TraceStyle::kOrbit, sim::TraceStyle::kWalkIn,
      sim::TraceStyle::kFocus, sim::TraceStyle::kOrbit};
  constexpr int kFrames = 6;
  static std::vector<sim::CapturedSequence> sequences;  // keep alive
  if (sequences.empty()) {
    for (const std::string& video : videos) {
      sequences.push_back(sim::CaptureVideo(video, profile, kFrames));
    }
  }
  std::vector<conference::ParticipantSpec> specs;
  for (int p = 0; p < parties; ++p) {
    const std::size_t v = static_cast<std::size_t>(p) % videos.size();
    conference::ParticipantSpec spec;
    spec.sequence = &sequences[v];
    spec.user_trace =
        sim::GenerateUserTrace(videos[v], styles[v], kFrames + 90);
    spec.uplink_trace = sim::MakeTrace2(30.0);
    spec.downlink_trace = sim::MakeTrace2(30.0);
    spec.uplink_trace_offset_ms = 1000.0 * p;
    spec.downlink_trace_offset_ms = 500.0 * p;
    spec.config = config;
    specs.push_back(std::move(spec));
  }
  conference::ConferenceOptions options;
  options.bandwidth_scale = 1.0 / 48.0;
  options.regions = regions;
  // Edges + root on separate loops when cascaded: the telemetry then
  // carries one runtime.loop.<i>.* series set per shard.
  options.shards = regions > 1 ? regions + 1 : 1;
  return conference::RunConference(specs, options);
}

class ReportRoundTripTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    obs::FrameLedger::Get().Reset();
    obs::FrameLedger::Get().SetEnabled(true);
    obs::SetTimeSeriesEnabled(true);
    const conference::ConferenceResult result = RunTracedConference();
    std::ostringstream out;
    conference::WriteConferenceTelemetry(out, result, 100.0);
    telemetry_text_ = new std::string(out.str());
    obs::SetTimeSeriesEnabled(false);
    obs::FrameLedger::Get().SetEnabled(false);
    obs::FrameLedger::Get().Reset();
  }
  static void TearDownTestSuite() {
    delete telemetry_text_;
    telemetry_text_ = nullptr;
  }

  static Telemetry Load(const std::string& text) {
    std::istringstream in(text);
    return LoadTelemetry(in);
  }

  static std::string* telemetry_text_;
};

std::string* ReportRoundTripTest::telemetry_text_ = nullptr;

TEST_F(ReportRoundTripTest, CleanTelemetryPassesEveryInvariant) {
  const Telemetry t = Load(*telemetry_text_);
  EXPECT_TRUE(t.parse_errors.empty());
  EXPECT_TRUE(t.run.present);
  EXPECT_EQ(t.run.parties, 4);
  EXPECT_FALSE(t.streams.empty());
  EXPECT_FALSE(t.audits.empty());
  EXPECT_FALSE(t.hops.empty());
  EXPECT_FALSE(t.series.empty());
  const std::vector<std::string> violations = CheckInvariants(t);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations.front();
}

TEST_F(ReportRoundTripTest, AnalysisCoversAllPairsAndAttributesDrops) {
  const Telemetry t = Load(*telemetry_text_);
  const Analysis a = Analyze(t);
  EXPECT_GT(a.captured_pairs, 0u);
  EXPECT_GE(a.terminal_fraction, 0.99);
  // 4 parties -> 12 directed streams.
  EXPECT_EQ(a.streams.size(), 12u);
  std::uint64_t forwarded = 0, drops = 0;
  for (const StreamAnalysis& s : a.streams) {
    forwarded += s.forwarded;
    drops += s.dropped_congestion + s.dropped_awaiting_key + s.dropped_budget;
    if (s.dropped_congestion + s.dropped_awaiting_key + s.dropped_budget > 0) {
      EXPECT_FALSE(s.dominant_gate.empty());
      EXPECT_GE(s.worst_interval_ms, 0.0);
    }
  }
  EXPECT_EQ(forwarded, t.run.pairs_forwarded);
  EXPECT_EQ(drops, t.run.pairs_dropped_budget + t.run.pairs_dropped_congestion +
                       t.run.pairs_dropped_awaiting_key);
  EXPECT_FALSE(a.shares.empty());
}

TEST_F(ReportRoundTripTest, PrintReportMentionsRunAndStreams) {
  const Telemetry t = Load(*telemetry_text_);
  std::ostringstream out;
  PrintReport(out, t, Analyze(t));
  const std::string text = out.str();
  EXPECT_NE(text.find("== run =="), std::string::npos);
  EXPECT_NE(text.find("drop attribution"), std::string::npos);
  EXPECT_NE(text.find("share oscillation"), std::string::npos);
}

// Acceptance criterion: the checker must fail on a deliberately corrupted
// ledger. Three corruption styles, each tripping a different invariant.
TEST_F(ReportRoundTripTest, CorruptedCounterFailsCheck) {
  std::string text = *telemetry_text_;
  const std::string needle = "\"pairs_forwarded\":";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + needle.size(), "9");  // prepend a digit: 9x the count
  const std::vector<std::string> violations = CheckInvariants(Load(text));
  ASSERT_FALSE(violations.empty());
}

TEST_F(ReportRoundTripTest, MissingDisplayedHopsFailCheck) {
  std::istringstream in(*telemetry_text_);
  std::ostringstream out;
  std::string line;
  int removed = 0;
  while (std::getline(in, line)) {
    if (line.find("\"hop\":\"displayed\"") != std::string::npos) {
      ++removed;
      continue;  // lose every display record
    }
    out << line << "\n";
  }
  ASSERT_GT(removed, 0);
  const std::vector<std::string> violations = CheckInvariants(Load(out.str()));
  ASSERT_FALSE(violations.empty());
  bool mentions_closure = false;
  for (const std::string& v : violations) {
    if (v.find("neither displayed nor stalled") != std::string::npos) {
      mentions_closure = true;
    }
  }
  EXPECT_TRUE(mentions_closure);
}

TEST_F(ReportRoundTripTest, InflatedAuditBytesFailReconciliation) {
  std::istringstream in(*telemetry_text_);
  std::ostringstream out;
  std::string line;
  bool inflated = false;
  while (std::getline(in, line)) {
    const std::string needle = "\"forwarded_bytes\":";
    const std::size_t pos = line.find(needle);
    if (!inflated && line.find("\"type\":\"audit\"") != std::string::npos &&
        pos != std::string::npos) {
      line.insert(pos + needle.size(), "7");  // 7xxxx bytes never forwarded
      inflated = true;
    }
    out << line << "\n";
  }
  ASSERT_TRUE(inflated);
  const std::vector<std::string> violations = CheckInvariants(Load(out.str()));
  ASSERT_FALSE(violations.empty());
  bool mentions_reconciliation = false;
  for (const std::string& v : violations) {
    if (v.find("reconciliation") != std::string::npos ||
        v.find("budget+credit") != std::string::npos) {
      mentions_reconciliation = true;
    }
  }
  EXPECT_TRUE(mentions_reconciliation);
}

TEST_F(ReportRoundTripTest, DroppedCaptureHopsFailOrdering) {
  std::istringstream in(*telemetry_text_);
  std::ostringstream out;
  std::string line;
  int removed = 0;
  while (std::getline(in, line)) {
    if (line.find("\"hop\":\"captured\"") != std::string::npos) {
      ++removed;
      continue;
    }
    out << line << "\n";
  }
  ASSERT_GT(removed, 0);
  const std::vector<std::string> violations = CheckInvariants(Load(out.str()));
  ASSERT_FALSE(violations.empty());
  bool mentions_prereq = false;
  for (const std::string& v : violations) {
    if (v.find("without 'captured'") != std::string::npos) {
      mentions_prereq = true;
    }
  }
  EXPECT_TRUE(mentions_prereq);
}

// ---- Cascaded telemetry: relay-hop conservation (DESIGN.md §11) ----

// Hand-written cascaded world: 4 parties in 2 regions ({0,1} | {2,3}).
// Exercises each relay rule in isolation, without a real run's noise.
TEST(ReportCascadeRules, RelayHopsMustConserveAcrossThePipes) {
  const std::string run_line =
      "{\"type\":\"run\",\"scheme\":\"LiVo-cascade\",\"parties\":4,"
      "\"regions\":2,\"relay_layers_relayed\":3,"
      "\"relay_prefixes_dropped_budget\":0}\n";
  const std::string edge_fwd =
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":-1,"
      "\"hop\":\"relay_forwarded\",\"t_ms\":10,\"bytes\":100,\"layer\":0}\n";
  const std::string root_fwd =
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":-3,"
      "\"hop\":\"relay_forwarded\",\"t_ms\":40,\"bytes\":100,\"layer\":0}\n";
  const std::string ingest =
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":-3,"
      "\"hop\":\"relay_ingested\",\"t_ms\":70,\"bytes\":100,\"layer\":0}\n";

  const auto check = [](const std::string& text) {
    std::istringstream in(text);
    return CheckInvariants(LoadTelemetry(in));
  };
  const auto mentions = [](const std::vector<std::string>& violations,
                           const std::string& needle) {
    for (const std::string& v : violations) {
      if (v.find(needle) != std::string::npos) return true;
    }
    return false;
  };

  // The complete chain conserves (run counter 3 = edge 1 + root 1, plus a
  // second edge layer that the root never forwarded anywhere — legal, the
  // root may trim the prefix).
  const std::string extra_edge_layer =
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":-1,"
      "\"hop\":\"relay_forwarded\",\"t_ms\":10,\"bytes\":60,\"layer\":1}\n";
  EXPECT_TRUE(
      check(run_line + edge_fwd + extra_edge_layer + root_fwd + ingest)
          .empty());

  // A root->edge forward that never arrives: the pipe lost it.
  {
    const auto violations = check(run_line + edge_fwd + root_fwd);
    EXPECT_TRUE(mentions(violations, "ingested 0x"));
  }
  // An ingest nobody sent: the pipe invented it.
  {
    const auto violations = check(run_line + edge_fwd + ingest);
    EXPECT_TRUE(mentions(violations, "never forwarded there"));
  }
  // A root forward that skipped the edge->root stage.
  {
    const auto violations = check(run_line + root_fwd + ingest);
    EXPECT_TRUE(mentions(violations, "without an edge->root forward"));
  }
  // Ledger total vs the run line's relay_layers_relayed counter.
  {
    const auto violations = check(run_line + edge_fwd + root_fwd + ingest);
    EXPECT_TRUE(mentions(violations, "'relay_forwarded'"));
  }
}

TEST(ReportCascadeRules, RemoteVerdictRequiresAnIngest) {
  // Pair (0,0) completes at the origin edge and gets verdicts from both
  // the local subscriber 1 and the remote subscriber 2 (region 1) — but
  // the ledger shows no ingest at region 1, so subscriber 2's copy never
  // arrived there.
  const std::string text =
      "{\"type\":\"run\",\"scheme\":\"LiVo-cascade\",\"parties\":4,"
      "\"regions\":2,\"pairs_completed\":1,\"pairs_forwarded\":2}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":-1,"
      "\"hop\":\"captured\",\"t_ms\":0,\"bytes\":0}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":-1,"
      "\"hop\":\"encoded\",\"t_ms\":1,\"bytes\":160}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":-1,"
      "\"hop\":\"pair_complete\",\"t_ms\":2,\"bytes\":160}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":1,"
      "\"hop\":\"forwarded\",\"t_ms\":3,\"bytes\":160,\"layer\":0}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":1,"
      "\"hop\":\"delivered\",\"t_ms\":4,\"bytes\":160}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":1,"
      "\"hop\":\"displayed\",\"t_ms\":5,\"bytes\":0}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":2,"
      "\"hop\":\"forwarded\",\"t_ms\":3,\"bytes\":160,\"layer\":0}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":2,"
      "\"hop\":\"delivered\",\"t_ms\":4,\"bytes\":160}\n"
      "{\"type\":\"hop\",\"origin\":0,\"frame\":0,\"subscriber\":2,"
      "\"hop\":\"displayed\",\"t_ms\":5,\"bytes\":0}\n";
  std::istringstream in(text);
  const std::vector<std::string> violations =
      CheckInvariants(LoadTelemetry(in));
  bool mentions_ingest = false;
  for (const std::string& v : violations) {
    if (v.find("without an ingest there") != std::string::npos) {
      mentions_ingest = true;
    }
  }
  EXPECT_TRUE(mentions_ingest);
}

// ---- End-to-end: cascaded conference -> telemetry -> checker ----

class ReportCascadeRoundTripTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    obs::FrameLedger::Get().Reset();
    obs::FrameLedger::Get().SetEnabled(true);
    obs::SetTimeSeriesEnabled(true);
    const conference::ConferenceResult result =
        RunTracedConference(/*parties=*/6, /*regions=*/2);
    std::ostringstream out;
    conference::WriteConferenceTelemetry(out, result, 100.0);
    telemetry_text_ = new std::string(out.str());
    obs::SetTimeSeriesEnabled(false);
    obs::FrameLedger::Get().SetEnabled(false);
    obs::FrameLedger::Get().Reset();
  }
  static void TearDownTestSuite() {
    delete telemetry_text_;
    telemetry_text_ = nullptr;
  }

  static Telemetry Load(const std::string& text) {
    std::istringstream in(text);
    return LoadTelemetry(in);
  }

  static std::string* telemetry_text_;
};

std::string* ReportCascadeRoundTripTest::telemetry_text_ = nullptr;

// The ISSUE acceptance run: a cascaded conference's telemetry passes
// livo_report --check, including the relay-hop conservation rules.
TEST_F(ReportCascadeRoundTripTest, CascadedTelemetryPassesEveryInvariant) {
  const Telemetry t = Load(*telemetry_text_);
  EXPECT_TRUE(t.parse_errors.empty());
  ASSERT_TRUE(t.run.present);
  EXPECT_EQ(t.run.parties, 6);
  EXPECT_EQ(t.run.regions, 2);
  EXPECT_GT(t.run.relay_ladders_offered, 0u);
  EXPECT_GT(t.run.relay_layers_relayed, 0u);
  EXPECT_GT(t.run.relay_demand_reports, 0u);
  bool saw_relay_hop = false;
  for (const Hop& hop : t.hops) {
    if (hop.hop == "relay_forwarded") saw_relay_hop = true;
  }
  EXPECT_TRUE(saw_relay_hop);
  const std::vector<std::string> violations = CheckInvariants(t);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations.front();
}

TEST_F(ReportCascadeRoundTripTest, PrintReportSummarizesCascadeAndLoops) {
  const Telemetry t = Load(*telemetry_text_);
  std::ostringstream out;
  PrintReport(out, t, Analyze(t));
  const std::string text = out.str();
  EXPECT_NE(text.find("cascade: 2 regions"), std::string::npos);
  // regions + 1 loops, each with a runtime.loop.<i>.* series pair.
  EXPECT_NE(text.find("== loop utilization (3 shards) =="),
            std::string::npos);
  EXPECT_NE(text.find("skew (busiest / even share):"), std::string::npos);
}

TEST_F(ReportCascadeRoundTripTest, TamperedRelayCounterFailsCheck) {
  std::string text = *telemetry_text_;
  const std::string needle = "\"relay_layers_relayed\":";
  const std::size_t pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + needle.size(), "9");
  const std::vector<std::string> violations = CheckInvariants(Load(text));
  ASSERT_FALSE(violations.empty());
  bool mentions_relay = false;
  for (const std::string& v : violations) {
    if (v.find("'relay_forwarded'") != std::string::npos) {
      mentions_relay = true;
    }
  }
  EXPECT_TRUE(mentions_relay);
}

TEST_F(ReportCascadeRoundTripTest, MissingIngestHopsFailRelayConservation) {
  std::istringstream in(*telemetry_text_);
  std::ostringstream out;
  std::string line;
  int removed = 0;
  while (std::getline(in, line)) {
    if (line.find("\"hop\":\"relay_ingested\"") != std::string::npos) {
      ++removed;
      continue;
    }
    out << line << "\n";
  }
  ASSERT_GT(removed, 0);
  const std::vector<std::string> violations = CheckInvariants(Load(out.str()));
  ASSERT_FALSE(violations.empty());
  bool mentions_conservation = false;
  for (const std::string& v : violations) {
    if (v.find("relay conservation") != std::string::npos) {
      mentions_conservation = true;
    }
  }
  EXPECT_TRUE(mentions_conservation);
}

}  // namespace
}  // namespace livo::report
