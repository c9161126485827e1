#include "report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <set>
#include <sstream>
#include <tuple>

namespace livo::report {
namespace {

// ---- JSON parser --------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      if (error != nullptr) *error = error_;
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing characters at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    error_ = message + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        return ParseLiteral("true", out, JsonValue::Kind::kBool, true);
      case 'f':
        return ParseLiteral("false", out, JsonValue::Kind::kBool, false);
      case 'n':
        return ParseLiteral("null", out, JsonValue::Kind::kNull, false);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(const char* literal, JsonValue* out, JsonValue::Kind kind,
                    bool value) {
    for (const char* p = literal; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Fail(std::string("bad literal, expected ") + literal);
      }
    }
    out->kind = kind;
    out->boolean = value;
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("bad number '" + token + "'");
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  static int HexDigit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  // Reads the four hex digits of a \u escape.
  bool ParseHex4(unsigned* code) {
    *code = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      const int digit = pos_ < text_.size() ? HexDigit(text_[pos_]) : -1;
      if (digit < 0) return Fail("bad \\u escape");
      *code = *code * 16 + static_cast<unsigned>(digit);
    }
    return true;
  }

  // Reads the digits of a \u escape and the low half that must follow a
  // high surrogate; returns the code point. A lone surrogate fails.
  bool ParseCodePoint(unsigned* code) {
    if (!ParseHex4(code)) return false;
    if (*code >= 0xDC00 && *code < 0xE000) return Fail("lone low surrogate");
    if (*code < 0xD800 || *code >= 0xDC00) return true;
    unsigned low = 0;
    if (text_.compare(pos_, 2, "\\u") != 0) return Fail("lone high surrogate");
    pos_ += 2;
    if (!ParseHex4(&low)) return false;
    if (low < 0xDC00 || low >= 0xE000) return Fail("lone high surrogate");
    *code = 0x10000 + ((*code - 0xD800) << 10) + (low - 0xDC00);
    return true;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // obs::JsonEscape writes control characters as \u00XX. The
            // code point is stored as UTF-8: one byte below 0x80.
            unsigned code = 0;
            if (!ParseCodePoint(&code)) return false;
            AppendUtf8(code, out);
            break;
          }
          default:
            return Fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      SkipWs();
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return true;
      if (c != ',') return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return Fail("expected ':' after key");
      }
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return true;
      if (c != ',') return Fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

std::uint64_t NumU64(const JsonValue& v, const std::string& key) {
  const double n = v.Num(key, 0.0);
  return n > 0.0 ? static_cast<std::uint64_t>(n + 0.5) : 0;
}

int NumInt(const JsonValue& v, const std::string& key, int fallback = 0) {
  const double n = v.Num(key, static_cast<double>(fallback));
  return static_cast<int>(std::llround(n));
}

// ---- Ledger indexing ----------------------------------------------------

using PairKey = std::pair<int, int>;             // (origin, frame)
using SubKey = std::tuple<int, int, int>;        // (origin, frame, subscriber)
// FEC hops are scoped to one channel stream: the ledger's `layer` field
// carries the channel-local stream id for parity/recovery/repair hops
// (color and depth lanes stay distinct), and `subscriber` is -1 for
// uplink hops (the SFU is the receiver) or the subscriber index for
// downlink hops.
using FecKey = std::tuple<int, int, int, int>;   // + channel stream id

constexpr double kTimeTolMs = 1e-6;

// Pair-level (subscriber == -1) lifecycle of one (origin, frame).
struct PairState {
  double captured = -1.0;
  double encoded = -1.0;
  double skipped = -1.0;
  double pair_complete = -1.0;
  double evicted = -1.0;       // first eviction (re-eviction is legal)
  double lost_uplink = -1.0;
  int pair_complete_count = 0;
};

// Subscriber-level lifecycle of one (origin, frame, subscriber).
struct SubState {
  double forwarded = -1.0;
  double dropped_congestion = -1.0;
  double dropped_awaiting_key = -1.0;
  double dropped_budget = -1.0;
  double dropped_layer_incomplete = -1.0;
  double delivered = -1.0;
  double displayed = -1.0;
  double stalled = -1.0;
  std::uint64_t forwarded_bytes = 0;
  int forwarded_layer = -1;       // ladder layer of the forwarded hop
  bool forwarded_keyframe = false;
  int verdicts = 0;  // forwarded + dropped_* events
};

// Relay hops reuse the subscriber field as a stage/destination code:
// -1 = edge stage (edge->root), -2 - d = destination region d (the root's
// forward onto the d pipe, and the d edge's ingest). See cascade.h.
using LayerKey = std::tuple<int, int, int>;        // (origin, frame, layer)
using DestLayerKey = std::tuple<int, int, int, int>;  // + dest region

struct LedgerIndex {
  std::map<PairKey, PairState> pairs;
  std::map<SubKey, SubState> subs;
  std::map<std::string, std::uint64_t> hop_counts;
  // Cascade relay hops (all empty on direct telemetry).
  std::map<LayerKey, std::uint64_t> edge_forwarded;
  std::map<DestLayerKey, std::uint64_t> root_forwarded;
  std::map<DestLayerKey, std::uint64_t> ingested;
  std::map<PairKey, std::set<int>> ingested_regions;
  std::uint64_t relay_bad_layer = 0;  // forward/ingest hops with layer < 0
  // FEC repair lifecycle (all empty on FEC-off telemetry).
  std::map<FecKey, double> parity_first;        // earliest parity ingest
  std::vector<std::pair<FecKey, double>> recoveries;
  std::map<FecKey, std::vector<double>> repair_scheduled;
  std::map<FecKey, std::vector<double>> repair_abandoned;
  std::uint64_t recovered_total = 0;
  std::uint64_t downlink_scheduled = 0;   // subscriber >= 0 hops only
  std::uint64_t downlink_abandoned = 0;
  std::map<std::pair<int, int>, std::uint64_t>
      recovered_by_stream;  // (origin, subscriber >= 0) -> recoveries
};

LedgerIndex IndexLedger(const Telemetry& telemetry) {
  LedgerIndex index;
  for (const Hop& hop : telemetry.hops) {
    ++index.hop_counts[hop.hop];
    const PairKey pk{hop.origin, hop.frame};
    if (hop.hop == "relay_forwarded" || hop.hop == "relay_ingested" ||
        hop.hop == "relay_dropped") {
      const int dest = hop.subscriber <= -2 ? -2 - hop.subscriber : -1;
      if (hop.hop == "relay_forwarded") {
        if (hop.layer < 0) ++index.relay_bad_layer;
        if (dest < 0) {
          ++index.edge_forwarded[LayerKey{hop.origin, hop.frame, hop.layer}];
        } else {
          ++index.root_forwarded[
              DestLayerKey{hop.origin, hop.frame, hop.layer, dest}];
        }
      } else if (hop.hop == "relay_ingested") {
        if (hop.layer < 0) ++index.relay_bad_layer;
        ++index.ingested[DestLayerKey{hop.origin, hop.frame, hop.layer, dest}];
        index.ingested_regions[pk].insert(dest);
      }
      // relay_dropped needs no per-pair index: the run-counter total and
      // the region-aware verdict rule account for it.
      continue;
    }
    if (hop.hop == "parity_ingested" || hop.hop == "recovered_fec" ||
        hop.hop == "repair_scheduled" || hop.hop == "repair_abandoned") {
      // FEC hops reuse `subscriber` for the receiver (-1 = SFU) and
      // `layer` for the channel stream id; keep them out of the
      // pair/subscriber lifecycle maps.
      const FecKey fk{hop.origin, hop.frame, hop.subscriber, hop.layer};
      if (hop.hop == "parity_ingested") {
        const auto [it, fresh] = index.parity_first.emplace(fk, hop.t_ms);
        if (!fresh) it->second = std::min(it->second, hop.t_ms);
      } else if (hop.hop == "recovered_fec") {
        index.recoveries.emplace_back(fk, hop.t_ms);
        ++index.recovered_total;
        if (hop.subscriber >= 0) {
          ++index.recovered_by_stream[{hop.origin, hop.subscriber}];
        }
      } else if (hop.hop == "repair_scheduled") {
        index.repair_scheduled[fk].push_back(hop.t_ms);
        if (hop.subscriber >= 0) ++index.downlink_scheduled;
      } else {
        index.repair_abandoned[fk].push_back(hop.t_ms);
        if (hop.subscriber >= 0) ++index.downlink_abandoned;
      }
      continue;
    }
    if (hop.subscriber < 0) {
      PairState& p = index.pairs[pk];
      if (hop.hop == "captured") {
        p.captured = hop.t_ms;
      } else if (hop.hop == "encoded") {
        p.encoded = hop.t_ms;
      } else if (hop.hop == "skipped_congestion") {
        p.skipped = hop.t_ms;
      } else if (hop.hop == "pair_complete") {
        p.pair_complete = hop.t_ms;
        ++p.pair_complete_count;
      } else if (hop.hop == "evicted") {
        if (p.evicted < 0.0) p.evicted = hop.t_ms;
      } else if (hop.hop == "lost_uplink") {
        p.lost_uplink = hop.t_ms;
      }
    } else {
      SubState& s = index.subs[SubKey{hop.origin, hop.frame, hop.subscriber}];
      if (hop.hop == "forwarded") {
        s.forwarded = hop.t_ms;
        s.forwarded_bytes = hop.bytes;
        s.forwarded_layer = hop.layer;
        s.forwarded_keyframe = hop.keyframe;
        ++s.verdicts;
      } else if (hop.hop == "dropped_congestion") {
        s.dropped_congestion = hop.t_ms;
        ++s.verdicts;
      } else if (hop.hop == "dropped_awaiting_key") {
        s.dropped_awaiting_key = hop.t_ms;
        ++s.verdicts;
      } else if (hop.hop == "dropped_budget") {
        s.dropped_budget = hop.t_ms;
        ++s.verdicts;
      } else if (hop.hop == "dropped_layer_incomplete") {
        s.dropped_layer_incomplete = hop.t_ms;
        ++s.verdicts;
      } else if (hop.hop == "delivered") {
        s.delivered = hop.t_ms;
      } else if (hop.hop == "displayed") {
        s.displayed = hop.t_ms;
      } else if (hop.hop == "stalled") {
        s.stalled = hop.t_ms;
      }
    }
  }
  return index;
}

// Region of `participant`: same contiguous-block math as
// conference::RegionOf (topology.h), replicated so the report library
// stays standalone.
int RegionOfParty(int participant, int parties, int regions) {
  if (regions <= 1 || parties <= 0) return 0;
  return static_cast<int>(
      (static_cast<long long>(participant) * regions) / parties);
}

int RegionSize(int region, int parties, int regions) {
  int n = 0;
  for (int p = 0; p < parties; ++p) {
    if (RegionOfParty(p, parties, regions) == region) ++n;
  }
  return n;
}

// Verdicts a completed pair owes. Direct: one per remote subscriber.
// Cascaded: one per origin-edge local subscriber, plus one per subscriber
// of every region that ingested the pair — a region whose copy died on a
// relay pipe owes none.
int ExpectedVerdicts(const LedgerIndex& index, const PairKey& key,
                     int parties, int regions) {
  if (regions <= 1) return parties - 1;
  int expected =
      RegionSize(RegionOfParty(key.first, parties, regions), parties,
                 regions) -
      1;
  const auto it = index.ingested_regions.find(key);
  if (it != index.ingested_regions.end()) {
    for (const int d : it->second) expected += RegionSize(d, parties, regions);
  }
  return expected;
}

// Is this captured pair fully accounted for? See ISSUE acceptance: every
// captured pair must end displayed, stalled, or dropped-with-reason.
bool PairIsTerminal(const PairState& pair, const LedgerIndex& index,
                    const PairKey& key, int parties, int regions) {
  if (pair.skipped >= 0.0) return true;
  if (pair.encoded < 0.0) return false;  // captured, never encoded/skipped
  if (pair.pair_complete < 0.0) {
    return pair.evicted >= 0.0 || pair.lost_uplink >= 0.0;
  }
  // Completed at the SFU: every subscriber needs exactly one verdict, and
  // every forwarded copy must close as displayed or stalled.
  int verdicts = 0;
  const SubKey lo{key.first, key.second, 0};
  for (auto it = index.subs.lower_bound(lo);
       it != index.subs.end() && std::get<0>(it->first) == key.first &&
       std::get<1>(it->first) == key.second;
       ++it) {
    const SubState& sub = it->second;
    verdicts += sub.verdicts;
    if (sub.forwarded >= 0.0 && sub.displayed < 0.0 && sub.stalled < 0.0) {
      return false;
    }
  }
  if (parties >= 2 &&
      verdicts != ExpectedVerdicts(index, key, parties, regions)) {
    return false;
  }
  return verdicts > 0 || parties < 2 ||
         (regions > 1 &&
          ExpectedVerdicts(index, key, parties, regions) == 0);
}

double IntervalOf(double t_ms, double interval_ms) {
  if (interval_ms <= 0.0) return 0.0;
  return std::floor(t_ms / interval_ms) * interval_ms;
}

// Collects violations with a hard cap on detail lines so a badly corrupt
// file doesn't produce megabytes of output.
class ViolationSink {
 public:
  explicit ViolationSink(std::vector<std::string>* out) : out_(out) {}

  void Add(const std::string& message) {
    ++total_;
    if (out_->size() < kMaxDetailLines) {
      out_->push_back(message);
    } else if (out_->size() == kMaxDetailLines) {
      out_->push_back("... further violations elided");
    }
  }

  std::uint64_t total() const { return total_; }

 private:
  static constexpr std::size_t kMaxDetailLines = 64;
  std::vector<std::string>* out_;
  std::uint64_t total_ = 0;
};

}  // namespace

// ---- JsonValue accessors ------------------------------------------------

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::Num(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::string JsonValue::Str(const std::string& key,
                           const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string : fallback;
}

bool JsonValue::Bool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->boolean : fallback;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  JsonParser parser(text);
  return parser.Parse(out, error);
}

// ---- Loading ------------------------------------------------------------

Telemetry LoadTelemetry(std::istream& is) {
  Telemetry telemetry;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue value;
    std::string error;
    if (!ParseJson(line, &value, &error)) {
      telemetry.parse_errors.push_back("line " + std::to_string(line_number) +
                                       ": " + error);
      continue;
    }
    const std::string type = value.Str("type");
    if (type == "run") {
      RunInfo& run = telemetry.run;
      run.present = true;
      run.scheme = value.Str("scheme");
      run.parties = NumInt(value, "parties");
      run.virtual_ms = value.Num("virtual_ms");
      run.duration_ms = value.Num("duration_ms");
      run.interval_ms = value.Num("interval_ms", 100.0);
      run.events_dispatched = NumU64(value, "events_dispatched");
      run.frames_in = NumU64(value, "frames_in");
      run.pairs_completed = NumU64(value, "pairs_completed");
      run.pairs_forwarded = NumU64(value, "pairs_forwarded");
      run.pairs_dropped_budget = NumU64(value, "pairs_dropped_budget");
      run.pairs_dropped_congestion = NumU64(value, "pairs_dropped_congestion");
      run.pairs_dropped_awaiting_key =
          NumU64(value, "pairs_dropped_awaiting_key");
      run.pairs_evicted_incomplete = NumU64(value, "pairs_evicted_incomplete");
      run.pairs_salvaged = NumU64(value, "pairs_salvaged");
      run.pairs_dropped_layer_incomplete =
          NumU64(value, "pairs_dropped_layer_incomplete");
      run.keyframe_relays = NumU64(value, "keyframe_relays");
      run.layers = NumInt(value, "layers", 1);
      if (run.layers < 1) run.layers = 1;
      run.regions = NumInt(value, "regions", 1);
      if (run.regions < 1) run.regions = 1;
      run.relay_ladders_offered = NumU64(value, "relay_ladders_offered");
      run.relay_prefixes_admitted = NumU64(value, "relay_prefixes_admitted");
      run.relay_prefixes_dropped_budget =
          NumU64(value, "relay_prefixes_dropped_budget");
      run.relay_layers_relayed = NumU64(value, "relay_layers_relayed");
      run.relay_bytes = NumU64(value, "relay_bytes");
      run.relay_pli_relays = NumU64(value, "relay_pli_relays");
      run.relay_demand_reports = NumU64(value, "relay_demand_reports");
      run.layer_switches_up = NumU64(value, "layer_switches_up");
      run.layer_switches_down = NumU64(value, "layer_switches_down");
      run.fec = value.Bool("fec");
      run.uplink_parity_bytes = NumU64(value, "uplink_parity_bytes");
      run.downlink_parity_bytes = NumU64(value, "downlink_parity_bytes");
      run.downlink_bytes = NumU64(value, "downlink_bytes");
      run.fragments_recovered = NumU64(value, "fragments_recovered");
      run.repairs_scheduled = NumU64(value, "repairs_scheduled");
      run.repairs_abandoned = NumU64(value, "repairs_abandoned");
      run.nack_rounds = NumU64(value, "nack_rounds");
      run.plis = NumU64(value, "plis");
      if (const JsonValue* fbl = value.Find("forwarded_by_layer");
          fbl != nullptr && fbl->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& n : fbl->array) {
          run.forwarded_by_layer.push_back(
              n.kind == JsonValue::Kind::kNumber
                  ? static_cast<std::uint64_t>(std::llround(n.number))
                  : 0);
        }
      }
    } else if (type == "stream") {
      StreamInfo stream;
      stream.subscriber = NumInt(value, "subscriber");
      stream.origin = NumInt(value, "origin");
      stream.expected = NumU64(value, "expected");
      stream.forwarded = NumU64(value, "forwarded");
      stream.rendered = NumU64(value, "rendered");
      stream.fps = value.Num("fps");
      stream.stall_rate = value.Num("stall_rate");
      stream.mean_latency_ms = value.Num("mean_latency_ms");
      stream.stall_aware_latency_ms = value.Num("stall_aware_latency_ms");
      stream.layer_switches = NumU64(value, "layer_switches");
      stream.keyframe_requests = NumU64(value, "keyframe_requests");
      stream.nacks = NumU64(value, "nacks");
      stream.recovered = NumU64(value, "recovered");
      if (const JsonValue* fbl = value.Find("forwarded_by_layer");
          fbl != nullptr && fbl->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& n : fbl->array) {
          stream.forwarded_by_layer.push_back(
              n.kind == JsonValue::Kind::kNumber
                  ? static_cast<std::uint64_t>(std::llround(n.number))
                  : 0);
        }
      }
      telemetry.streams.push_back(std::move(stream));
    } else if (type == "audit") {
      AuditRow row;
      row.subscriber = NumInt(value, "subscriber");
      row.start_ms = value.Num("start_ms");
      row.budget_bytes = value.Num("budget_bytes");
      row.credit_bytes = value.Num("credit_bytes");
      row.forwarded_bytes = value.Num("forwarded_bytes");
      if (const JsonValue* shares = value.Find("shares");
          shares != nullptr && shares->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& share : shares->array) {
          row.shares.push_back(
              share.kind == JsonValue::Kind::kNumber ? share.number : 0.0);
        }
      }
      if (const JsonValue* fbl = value.Find("forwarded_by_layer");
          fbl != nullptr && fbl->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& n : fbl->array) {
          row.forwarded_by_layer.push_back(
              n.kind == JsonValue::Kind::kNumber
                  ? static_cast<std::uint64_t>(std::llround(n.number))
                  : 0);
        }
      }
      telemetry.audits.push_back(std::move(row));
    } else if (type == "hop") {
      Hop hop;
      hop.origin = NumInt(value, "origin");
      hop.frame = NumInt(value, "frame");
      hop.subscriber = NumInt(value, "subscriber", -1);
      hop.hop = value.Str("hop");
      hop.t_ms = value.Num("t_ms");
      hop.bytes = NumU64(value, "bytes");
      hop.keyframe = value.Bool("keyframe");
      hop.layer = NumInt(value, "layer", -1);
      telemetry.hops.push_back(std::move(hop));
    } else if (type == "timeseries") {
      SeriesInfo series;
      series.name = value.Str("name");
      series.grid_ms = value.Num("grid_ms");
      series.evicted = NumU64(value, "evicted");
      if (const JsonValue* points = value.Find("points");
          points != nullptr && points->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& point : points->array) {
          if (point.kind == JsonValue::Kind::kArray &&
              point.array.size() == 2) {
            series.points.emplace_back(point.array[0].number,
                                       point.array[1].number);
          }
        }
      }
      telemetry.series.push_back(std::move(series));
    }
    // Unknown line types are skipped: newer writers stay readable.
  }
  return telemetry;
}

// ---- Analysis -----------------------------------------------------------

Analysis Analyze(const Telemetry& telemetry) {
  Analysis analysis;
  const LedgerIndex index = IndexLedger(telemetry);
  const double interval_ms =
      telemetry.run.interval_ms > 0.0 ? telemetry.run.interval_ms : 100.0;

  for (const auto& [key, pair] : index.pairs) {
    if (pair.captured < 0.0) continue;
    ++analysis.captured_pairs;
    if (PairIsTerminal(pair, index, key, telemetry.run.parties,
                       telemetry.run.regions)) {
      ++analysis.terminal_pairs;
    }
  }
  analysis.terminal_fraction =
      analysis.captured_pairs == 0
          ? 1.0
          : static_cast<double>(analysis.terminal_pairs) /
                static_cast<double>(analysis.captured_pairs);

  // Per (origin, subscriber) stream accounting from subscriber-level hops.
  struct StreamAccumulator {
    StreamAnalysis out;
    std::map<double, std::uint64_t> drops_by_interval;
    // Per interval: (completed verdicts, displayed) for stall-onset math.
    std::map<double, std::pair<std::uint64_t, std::uint64_t>> by_interval;
    std::map<int, bool> displayed_by_frame;  // frame -> reached display
  };
  std::map<std::pair<int, int>, StreamAccumulator> streams;
  std::map<int, std::uint64_t> captured_by_origin;
  for (const auto& [key, pair] : index.pairs) {
    if (pair.captured >= 0.0) ++captured_by_origin[key.first];
  }
  for (const auto& [key, sub] : index.subs) {
    const int origin = std::get<0>(key);
    const int frame = std::get<1>(key);
    const int subscriber = std::get<2>(key);
    StreamAccumulator& acc = streams[{origin, subscriber}];
    acc.out.origin = origin;
    acc.out.subscriber = subscriber;
    double verdict_t = -1.0;
    if (sub.forwarded >= 0.0) {
      ++acc.out.forwarded;
      verdict_t = sub.forwarded;
    }
    if (sub.displayed >= 0.0) ++acc.out.displayed;
    if (sub.stalled >= 0.0) ++acc.out.stalled;
    if (sub.dropped_congestion >= 0.0) {
      ++acc.out.dropped_congestion;
      verdict_t = sub.dropped_congestion;
      ++acc.drops_by_interval[IntervalOf(sub.dropped_congestion, interval_ms)];
    }
    if (sub.dropped_awaiting_key >= 0.0) {
      ++acc.out.dropped_awaiting_key;
      verdict_t = sub.dropped_awaiting_key;
      ++acc.drops_by_interval[IntervalOf(sub.dropped_awaiting_key,
                                         interval_ms)];
    }
    if (sub.dropped_budget >= 0.0) {
      ++acc.out.dropped_budget;
      verdict_t = sub.dropped_budget;
      ++acc.drops_by_interval[IntervalOf(sub.dropped_budget, interval_ms)];
    }
    if (sub.dropped_layer_incomplete >= 0.0) {
      ++acc.out.dropped_layer_incomplete;
      verdict_t = sub.dropped_layer_incomplete;
      ++acc.drops_by_interval[IntervalOf(sub.dropped_layer_incomplete,
                                         interval_ms)];
    }
    if (verdict_t >= 0.0) {
      auto& [total, displayed] =
          acc.by_interval[IntervalOf(verdict_t, interval_ms)];
      ++total;
      if (sub.displayed >= 0.0) ++displayed;
      acc.displayed_by_frame[frame] = sub.displayed >= 0.0;
    }
  }

  std::map<double, std::pair<std::uint64_t, std::uint64_t>> global_by_interval;
  for (auto& [key, acc] : streams) {
    StreamAnalysis& out = acc.out;
    out.captured = captured_by_origin[key.first];
    // Dominant gate: fixed tie-break order mirrors the SFU gate order.
    const std::pair<std::string, std::uint64_t> gates[] = {
        {"congestion", out.dropped_congestion},
        {"awaiting_key", out.dropped_awaiting_key},
        {"budget", out.dropped_budget},
        {"layer_incomplete", out.dropped_layer_incomplete},
    };
    std::uint64_t best = 0;
    for (const auto& [name, count] : gates) {
      if (count > best) {
        best = count;
        out.dominant_gate = name;
      }
    }
    for (const auto& [start, drops] : acc.drops_by_interval) {
      if (drops > out.worst_interval_drops) {
        out.worst_interval_drops = drops;
        out.worst_interval_ms = start;
      }
    }
    for (const auto& [start, counts] : acc.by_interval) {
      const auto& [total, displayed] = counts;
      global_by_interval[start].first += total;
      global_by_interval[start].second += displayed;
      if (out.stall_onset_ms < 0.0 && total > 0 &&
          static_cast<double>(displayed) < 0.5 * static_cast<double>(total)) {
        out.stall_onset_ms = start;
      }
    }
    // Stall bursts: runs of >= 3 consecutive completed-but-undisplayed
    // frames in frame-index order.
    std::uint64_t run_length = 0;
    for (const auto& [frame, displayed] : acc.displayed_by_frame) {
      (void)frame;
      if (!displayed) {
        ++run_length;
        out.longest_burst = std::max(out.longest_burst, run_length);
        if (run_length == 3) ++out.stall_bursts;
      } else {
        run_length = 0;
      }
    }
    analysis.streams.push_back(out);
  }
  for (const auto& [start, counts] : global_by_interval) {
    const auto& [total, displayed] = counts;
    if (total > 0 &&
        static_cast<double>(displayed) < 0.5 * static_cast<double>(total)) {
      analysis.global_stall_onset_ms = start;
      break;
    }
  }

  // Share oscillation from the audit trail.
  std::map<std::pair<int, int>, std::vector<double>> share_rows;
  for (const AuditRow& row : telemetry.audits) {
    for (std::size_t slot = 0; slot < row.shares.size(); ++slot) {
      share_rows[{row.subscriber, static_cast<int>(slot)}].push_back(
          row.shares[slot]);
    }
  }
  for (const auto& [key, values] : share_rows) {
    ShareStats stats;
    stats.subscriber = key.first;
    stats.slot = key.second;
    double sum = 0.0;
    for (double v : values) sum += v;
    stats.mean = sum / static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values) var += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(var / static_cast<double>(values.size()));
    double prev_delta = 0.0;
    for (std::size_t i = 1; i < values.size(); ++i) {
      const double delta = values[i] - values[i - 1];
      stats.max_step = std::max(stats.max_step, std::abs(delta));
      if (std::abs(delta) > 1e-12 && std::abs(prev_delta) > 1e-12 &&
          (delta > 0.0) != (prev_delta > 0.0)) {
        ++stats.reversals;
      }
      if (std::abs(delta) > 1e-12) prev_delta = delta;
    }
    analysis.shares.push_back(stats);
  }
  return analysis;
}

// ---- Invariants ---------------------------------------------------------

std::vector<std::string> CheckInvariants(const Telemetry& telemetry) {
  std::vector<std::string> violations;
  ViolationSink sink(&violations);

  for (const std::string& error : telemetry.parse_errors) {
    sink.Add("parse error: " + error);
  }

  const RunInfo& run = telemetry.run;
  // Gate conservation on the run counters alone: every completed pair
  // gets exactly one verdict per remote subscriber.
  if (run.present && run.parties >= 2) {
    const std::uint64_t verdicts =
        run.pairs_forwarded + run.pairs_dropped_budget +
        run.pairs_dropped_congestion + run.pairs_dropped_awaiting_key +
        run.pairs_dropped_layer_incomplete;
    const std::uint64_t expected =
        run.pairs_completed * static_cast<std::uint64_t>(run.parties - 1);
    // Cascaded runs only bound from above: pairs whose relay copy dropped
    // owe no verdict in the unreached regions (the ledger-level rule
    // below accounts for them exactly).
    if (run.regions > 1 ? verdicts > expected : verdicts != expected) {
      sink.Add("gate conservation: pairs_completed*" +
               std::to_string(run.parties - 1) + " = " +
               std::to_string(expected) + " but forwarded+dropped = " +
               std::to_string(verdicts) +
               (run.regions > 1 ? " (cascaded upper bound)" : ""));
    }
  }

  const LedgerIndex index = IndexLedger(telemetry);

  // Ledger hop totals must match the run line's cumulative counters.
  if (run.present && !telemetry.hops.empty()) {
    const auto count = [&index](const char* hop) -> std::uint64_t {
      const auto it = index.hop_counts.find(hop);
      return it == index.hop_counts.end() ? 0 : it->second;
    };
    const std::pair<const char*, std::uint64_t> expectations[] = {
        {"pair_complete", run.pairs_completed},
        {"forwarded", run.pairs_forwarded},
        {"dropped_budget", run.pairs_dropped_budget},
        {"dropped_congestion", run.pairs_dropped_congestion},
        {"dropped_awaiting_key", run.pairs_dropped_awaiting_key},
        {"dropped_layer_incomplete", run.pairs_dropped_layer_incomplete},
        {"evicted", run.pairs_evicted_incomplete},
    };
    for (const auto& [hop, expected] : expectations) {
      const std::uint64_t got = count(hop);
      if (got != expected) {
        sink.Add(std::string("counter mismatch: ledger has ") +
                 std::to_string(got) + " '" + hop +
                 "' events but run counter says " + std::to_string(expected));
      }
    }
  }

  // Layer conservation (simulcast ladder). Only meaningful when the run
  // line was written by a ladder-aware writer and carries the histogram;
  // pre-ladder telemetry skips this whole section.
  if (run.present && !run.forwarded_by_layer.empty()) {
    const int layers = static_cast<int>(run.forwarded_by_layer.size());
    if (layers != run.layers) {
      sink.Add("layer conservation: run line says layers=" +
               std::to_string(run.layers) + " but forwarded_by_layer has " +
               std::to_string(layers) + " entries");
    }
    std::uint64_t histogram_sum = 0;
    for (const std::uint64_t n : run.forwarded_by_layer) histogram_sum += n;
    if (histogram_sum != run.pairs_forwarded) {
      sink.Add("layer conservation: forwarded_by_layer sums to " +
               std::to_string(histogram_sum) + " but pairs_forwarded = " +
               std::to_string(run.pairs_forwarded));
    }
    // Per-stream histograms: each sums to that stream's forwarded count,
    // and their per-layer column sums reproduce the run histogram.
    if (!telemetry.streams.empty()) {
      std::vector<std::uint64_t> column(run.forwarded_by_layer.size(), 0);
      for (const StreamInfo& stream : telemetry.streams) {
        std::uint64_t total = 0;
        for (std::size_t q = 0; q < stream.forwarded_by_layer.size(); ++q) {
          total += stream.forwarded_by_layer[q];
          if (q < column.size()) column[q] += stream.forwarded_by_layer[q];
        }
        if (total != stream.forwarded) {
          sink.Add("layer conservation: stream (" +
                   std::to_string(stream.origin) + "->" +
                   std::to_string(stream.subscriber) +
                   ") histogram sums to " + std::to_string(total) +
                   " but forwarded = " + std::to_string(stream.forwarded));
        }
      }
      for (std::size_t q = 0; q < column.size(); ++q) {
        if (column[q] != run.forwarded_by_layer[q]) {
          sink.Add("layer conservation: streams sum to " +
                   std::to_string(column[q]) + " forwards at layer " +
                   std::to_string(q) + " but run histogram says " +
                   std::to_string(run.forwarded_by_layer[q]));
        }
      }
    }
    // Ledger: every forwarded hop carries a valid layer, the per-layer
    // totals reproduce the run histogram, and a stream changes its
    // forwarded layer only on a keyframe pair.
    if (!telemetry.hops.empty()) {
      std::vector<std::uint64_t> ledger_by_layer(
          run.forwarded_by_layer.size(), 0);
      // (origin, subscriber) -> last forwarded layer; index.subs iterates
      // in (origin, frame, subscriber) order, so per-stream visits are in
      // frame order.
      std::map<std::pair<int, int>, int> last_layer;
      for (const auto& [key, sub] : index.subs) {
        if (sub.forwarded < 0.0) continue;
        const int origin = std::get<0>(key);
        const int frame = std::get<1>(key);
        const int subscriber = std::get<2>(key);
        const int layer = sub.forwarded_layer;
        if (layer < 0 || layer >= layers) {
          sink.Add("layer conservation: forwarded pair (" +
                   std::to_string(origin) + "," + std::to_string(frame) +
                   ") subscriber " + std::to_string(subscriber) +
                   " carries layer " + std::to_string(layer) +
                   " outside [0," + std::to_string(layers) + ")");
          continue;
        }
        ++ledger_by_layer[layer];
        const auto [it, fresh] =
            last_layer.emplace(std::make_pair(origin, subscriber), layer);
        if (!fresh && it->second != layer && !sub.forwarded_keyframe) {
          sink.Add("layer switch: stream (" + std::to_string(origin) + "->" +
                   std::to_string(subscriber) + ") frame " +
                   std::to_string(frame) + " changes layer " +
                   std::to_string(it->second) + "->" + std::to_string(layer) +
                   " on a non-keyframe pair");
        }
        it->second = layer;
      }
      for (std::size_t q = 0; q < ledger_by_layer.size(); ++q) {
        if (ledger_by_layer[q] != run.forwarded_by_layer[q]) {
          sink.Add("layer conservation: ledger has " +
                   std::to_string(ledger_by_layer[q]) +
                   " forwards at layer " + std::to_string(q) +
                   " but run histogram says " +
                   std::to_string(run.forwarded_by_layer[q]));
        }
      }
    }
  }

  // Pair-level ordering and prerequisites.
  for (const auto& [key, pair] : index.pairs) {
    const std::string id = "pair (" + std::to_string(key.first) + "," +
                           std::to_string(key.second) + ")";
    const auto require = [&](double event, const char* name, double prereq,
                             const char* prereq_name) {
      if (event < 0.0) return;
      if (prereq < 0.0) {
        sink.Add(id + ": '" + name + "' without '" + prereq_name + "'");
      } else if (event + kTimeTolMs < prereq) {
        sink.Add(id + ": '" + name + "' at " + std::to_string(event) +
                 "ms precedes '" + prereq_name + "' at " +
                 std::to_string(prereq) + "ms");
      }
    };
    require(pair.encoded, "encoded", pair.captured, "captured");
    require(pair.skipped, "skipped_congestion", pair.captured, "captured");
    require(pair.pair_complete, "pair_complete", pair.encoded, "encoded");
    require(pair.evicted, "evicted", pair.encoded, "encoded");
    require(pair.lost_uplink, "lost_uplink", pair.encoded, "encoded");
    if (pair.pair_complete_count > 1) {
      sink.Add(id + ": pair_complete recorded " +
               std::to_string(pair.pair_complete_count) + " times");
    }
  }

  // Subscriber-level ordering, prerequisites, verdict uniqueness, and
  // forwarded closure.
  std::map<PairKey, int> verdicts_per_pair;
  for (const auto& [key, sub] : index.subs) {
    const PairKey pk{std::get<0>(key), std::get<1>(key)};
    const std::string id = "pair (" + std::to_string(pk.first) + "," +
                           std::to_string(pk.second) + ") subscriber " +
                           std::to_string(std::get<2>(key));
    const auto pair_it = index.pairs.find(pk);
    const double complete =
        pair_it == index.pairs.end() ? -1.0 : pair_it->second.pair_complete;
    const auto require = [&](double event, const char* name, double prereq,
                             const char* prereq_name) {
      if (event < 0.0) return;
      if (prereq < 0.0) {
        sink.Add(id + ": '" + name + "' without '" + prereq_name + "'");
      } else if (event + kTimeTolMs < prereq) {
        sink.Add(id + ": '" + name + "' at " + std::to_string(event) +
                 "ms precedes '" + prereq_name + "' at " +
                 std::to_string(prereq) + "ms");
      }
    };
    require(sub.forwarded, "forwarded", complete, "pair_complete");
    require(sub.dropped_congestion, "dropped_congestion", complete,
            "pair_complete");
    require(sub.dropped_awaiting_key, "dropped_awaiting_key", complete,
            "pair_complete");
    require(sub.dropped_budget, "dropped_budget", complete, "pair_complete");
    require(sub.dropped_layer_incomplete, "dropped_layer_incomplete", complete,
            "pair_complete");
    require(sub.delivered, "delivered", sub.forwarded, "forwarded");
    require(sub.displayed, "displayed", sub.delivered, "delivered");
    require(sub.stalled, "stalled", sub.forwarded, "forwarded");
    if (sub.verdicts > 1) {
      sink.Add(id + ": " + std::to_string(sub.verdicts) +
               " gate verdicts (expected exactly one)");
    }
    if (sub.forwarded >= 0.0 && sub.displayed < 0.0 && sub.stalled < 0.0) {
      sink.Add(id + ": forwarded but neither displayed nor stalled");
    }
    if (sub.displayed >= 0.0 && sub.stalled >= 0.0) {
      sink.Add(id + ": both displayed and stalled");
    }
    verdicts_per_pair[pk] += sub.verdicts;
  }
  if (run.present && run.parties >= 2) {
    for (const auto& [key, pair] : index.pairs) {
      if (pair.pair_complete < 0.0) continue;
      const auto it = verdicts_per_pair.find(key);
      const int verdicts = it == verdicts_per_pair.end() ? 0 : it->second;
      const int expected =
          ExpectedVerdicts(index, key, run.parties, run.regions);
      if (verdicts != expected) {
        sink.Add("pair (" + std::to_string(key.first) + "," +
                 std::to_string(key.second) + "): " +
                 std::to_string(verdicts) + " verdicts for " +
                 std::to_string(expected) + " reachable subscribers");
      }
    }
  }

  // ---- Cascade relay conservation (regions > 1) ----
  const bool has_relay_hops = !index.edge_forwarded.empty() ||
                              !index.root_forwarded.empty() ||
                              !index.ingested.empty();
  if (run.regions > 1 || has_relay_hops) {
    if (index.relay_bad_layer > 0) {
      sink.Add("relay: " + std::to_string(index.relay_bad_layer) +
               " relay forward/ingest hops without a ladder layer");
    }
    const auto relay_id = [](const DestLayerKey& key) {
      return "pair (" + std::to_string(std::get<0>(key)) + "," +
             std::to_string(std::get<1>(key)) + ") layer " +
             std::to_string(std::get<2>(key)) + " region " +
             std::to_string(std::get<3>(key));
    };
    // Root->edge pipes never lose: the root's forwards to a destination
    // match that edge's ingests exactly, per (origin, frame, layer).
    for (const auto& [key, n] : index.root_forwarded) {
      const auto it = index.ingested.find(key);
      const std::uint64_t got = it == index.ingested.end() ? 0 : it->second;
      if (got != n) {
        sink.Add("relay conservation: " + relay_id(key) + " forwarded " +
                 std::to_string(n) + "x by the root but ingested " +
                 std::to_string(got) + "x");
      }
      // ... and a root forward rides a prior edge->root forward.
      const LayerKey lk{std::get<0>(key), std::get<1>(key),
                        std::get<2>(key)};
      if (index.edge_forwarded.find(lk) == index.edge_forwarded.end()) {
        sink.Add("relay conservation: " + relay_id(key) +
                 " crossed root->edge without an edge->root forward");
      }
    }
    for (const auto& [key, n] : index.ingested) {
      (void)n;
      if (index.root_forwarded.find(key) == index.root_forwarded.end()) {
        sink.Add("relay conservation: " + relay_id(key) +
                 " ingested but never forwarded there by the root");
      }
    }
    // A subscriber verdict in a remote region needs the pair to have
    // arrived there.
    if (run.present && run.regions > 1) {
      for (const auto& [key, sub] : index.subs) {
        if (sub.verdicts == 0) continue;
        const int origin = std::get<0>(key);
        const int frame = std::get<1>(key);
        const int subscriber = std::get<2>(key);
        const int sub_region =
            RegionOfParty(subscriber, run.parties, run.regions);
        if (sub_region == RegionOfParty(origin, run.parties, run.regions)) {
          continue;
        }
        const auto it = index.ingested_regions.find(PairKey{origin, frame});
        if (it == index.ingested_regions.end() ||
            it->second.count(sub_region) == 0) {
          sink.Add("relay conservation: subscriber " +
                   std::to_string(subscriber) + " has a verdict on pair (" +
                   std::to_string(origin) + "," + std::to_string(frame) +
                   ") in region " + std::to_string(sub_region) +
                   " without an ingest there");
        }
      }
    }
    // Ledger relay totals vs the run line's cascade counters.
    if (run.present && run.regions > 1 && !telemetry.hops.empty()) {
      const auto count = [&index](const char* hop) -> std::uint64_t {
        const auto it = index.hop_counts.find(hop);
        return it == index.hop_counts.end() ? 0 : it->second;
      };
      const std::pair<const char*, std::uint64_t> expectations[] = {
          {"relay_forwarded", run.relay_layers_relayed},
          {"relay_dropped", run.relay_prefixes_dropped_budget},
      };
      for (const auto& [hop, expected] : expectations) {
        const std::uint64_t got = count(hop);
        if (got != expected) {
          sink.Add(std::string("counter mismatch: ledger has ") +
                   std::to_string(got) + " '" + hop +
                   "' events but run counter says " +
                   std::to_string(expected));
        }
      }
    }
  }

  // ---- FEC repair conservation (run.fec or any FEC hop present) ----
  const bool has_fec_hops =
      !index.parity_first.empty() || !index.recoveries.empty() ||
      !index.repair_scheduled.empty() || !index.repair_abandoned.empty();
  if (run.fec || has_fec_hops) {
    const auto fec_id = [](const FecKey& key) {
      const int receiver = std::get<2>(key);
      return "pair (" + std::to_string(std::get<0>(key)) + "," +
             std::to_string(std::get<1>(key)) + ") receiver " +
             (receiver < 0 ? std::string("sfu")
                           : std::to_string(receiver)) +
             " stream " + std::to_string(std::get<3>(key));
    };
    // Every recovery cites a parity ingest: rebuilding a fragment from
    // parity requires a parity packet for the same frame on the same
    // channel stream to have arrived first.
    for (const auto& [key, t] : index.recoveries) {
      const auto it = index.parity_first.find(key);
      if (it == index.parity_first.end()) {
        sink.Add("fec: " + fec_id(key) +
                 " recovered a fragment without any parity ingest");
      } else if (t + kTimeTolMs < it->second) {
        sink.Add("fec: " + fec_id(key) + " recovered at " +
                 std::to_string(t) + "ms before its first parity ingest at " +
                 std::to_string(it->second) + "ms");
      }
    }
    // An abandoned repair is terminal: the receiver erased the frame and
    // advanced its release cursor, so the same scope must never abandon
    // twice nor schedule a repair round at or after the abandonment.
    for (const auto& [key, times] : index.repair_abandoned) {
      if (times.size() > 1) {
        sink.Add("fec: " + fec_id(key) + " abandoned " +
                 std::to_string(times.size()) + " times (expected at most 1)");
      }
      const double abandoned = *std::min_element(times.begin(), times.end());
      const auto it = index.repair_scheduled.find(key);
      if (it == index.repair_scheduled.end()) continue;
      for (const double t : it->second) {
        if (t + kTimeTolMs > abandoned) {
          sink.Add("fec: " + fec_id(key) + " schedules a repair at " +
                   std::to_string(t) + "ms despite abandonment at " +
                   std::to_string(abandoned) + "ms");
        }
      }
    }
    // Traced FEC runs: ledger totals vs the run line. recovered_fec hops
    // cover both directions (the run counter sums downlink + uplink);
    // the scheduler counters are downlink-only, so compare them against
    // the subscriber-scoped hops.
    if (run.present && run.fec && !telemetry.hops.empty()) {
      const std::pair<const char*, std::pair<std::uint64_t, std::uint64_t>>
          expectations[] = {
              {"recovered_fec",
               {index.recovered_total, run.fragments_recovered}},
              {"repair_scheduled (downlink)",
               {index.downlink_scheduled, run.repairs_scheduled}},
              {"repair_abandoned (downlink)",
               {index.downlink_abandoned, run.repairs_abandoned}},
          };
      for (const auto& [hop, counts] : expectations) {
        if (counts.first != counts.second) {
          sink.Add(std::string("counter mismatch: ledger has ") +
                   std::to_string(counts.first) + " '" + hop +
                   "' events but run counter says " +
                   std::to_string(counts.second));
        }
      }
      for (const StreamInfo& stream : telemetry.streams) {
        const auto it = index.recovered_by_stream.find(
            {stream.origin, stream.subscriber});
        const std::uint64_t got =
            it == index.recovered_by_stream.end() ? 0 : it->second;
        if (got != stream.recovered) {
          sink.Add("fec: stream (" + std::to_string(stream.origin) + "->" +
                   std::to_string(stream.subscriber) + ") ledger has " +
                   std::to_string(got) + " recoveries but stream line says " +
                   std::to_string(stream.recovered));
        }
      }
    }
  }

  // Audit rows: forwarded <= budget + carried credit.
  for (const AuditRow& row : telemetry.audits) {
    const double cap = row.budget_bytes + row.credit_bytes;
    const double eps = 1e-6 * std::max(1.0, cap) + 1e-3;
    if (row.forwarded_bytes > cap + eps) {
      sink.Add("audit: subscriber " + std::to_string(row.subscriber) +
               " interval " + std::to_string(row.start_ms) + "ms forwarded " +
               std::to_string(row.forwarded_bytes) + "B > budget+credit " +
               std::to_string(cap) + "B");
    }
  }

  // Audit <-> ledger reconciliation: forwarded bytes per interval.
  if (!telemetry.audits.empty() && !telemetry.hops.empty()) {
    std::map<int, std::vector<const AuditRow*>> rows_by_subscriber;
    for (const AuditRow& row : telemetry.audits) {
      rows_by_subscriber[row.subscriber].push_back(&row);
    }
    for (auto& [subscriber, rows] : rows_by_subscriber) {
      (void)subscriber;
      std::stable_sort(rows.begin(), rows.end(),
                       [](const AuditRow* a, const AuditRow* b) {
                         return a->start_ms < b->start_ms;
                       });
    }
    std::map<int, std::vector<double>> ledger_bytes;  // per subscriber, per row
    for (auto& [subscriber, rows] : rows_by_subscriber) {
      ledger_bytes[subscriber].assign(rows.size(), 0.0);
    }
    for (const auto& [key, sub] : index.subs) {
      if (sub.forwarded < 0.0) continue;
      const int subscriber = std::get<2>(key);
      const auto rows_it = rows_by_subscriber.find(subscriber);
      if (rows_it == rows_by_subscriber.end()) {
        sink.Add("forwarded pair for subscriber " + std::to_string(subscriber) +
                 " but no audit rows for them");
        continue;
      }
      const std::vector<const AuditRow*>& rows = rows_it->second;
      // Last row whose interval start precedes (or equals) the forward.
      std::size_t lo = 0, hi = rows.size();
      while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (rows[mid]->start_ms <= sub.forwarded + kTimeTolMs) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == 0) {
        sink.Add("forwarded pair at " + std::to_string(sub.forwarded) +
                 "ms precedes subscriber " + std::to_string(subscriber) +
                 "'s first audit interval");
        continue;
      }
      ledger_bytes[subscriber][lo - 1] +=
          static_cast<double>(sub.forwarded_bytes);
    }
    for (const auto& [subscriber, rows] : rows_by_subscriber) {
      const std::vector<double>& bytes = ledger_bytes[subscriber];
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (std::abs(bytes[i] - rows[i]->forwarded_bytes) > 0.5) {
          sink.Add("reconciliation: subscriber " + std::to_string(subscriber) +
                   " interval " + std::to_string(rows[i]->start_ms) +
                   "ms audit says " + std::to_string(rows[i]->forwarded_bytes) +
                   "B forwarded, ledger sums " + std::to_string(bytes[i]) +
                   "B");
        }
      }
    }
  }

  // Terminal coverage of captured pairs.
  if (!telemetry.hops.empty()) {
    std::uint64_t captured = 0, terminal = 0;
    for (const auto& [key, pair] : index.pairs) {
      if (pair.captured < 0.0) continue;
      ++captured;
      if (PairIsTerminal(pair, index, key, run.parties, run.regions)) {
        ++terminal;
      }
    }
    if (captured > 0) {
      const double fraction =
          static_cast<double>(terminal) / static_cast<double>(captured);
      if (fraction < 0.99) {
        std::ostringstream oss;
        oss << "terminal coverage: only " << terminal << "/" << captured
            << " captured pairs (" << std::fixed << std::setprecision(2)
            << 100.0 * fraction << "%) reached a terminal state";
        sink.Add(oss.str());
      }
    }
  }

  if (sink.total() > violations.size()) {
    violations.push_back("total violations: " + std::to_string(sink.total()));
  }
  return violations;
}

// ---- Report -------------------------------------------------------------

namespace {

std::string FmtMs(double ms) {
  if (ms < 0.0) return "-";
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(0) << ms;
  return oss.str();
}

}  // namespace

void PrintReport(std::ostream& os, const Telemetry& telemetry,
                 const Analysis& analysis) {
  const RunInfo& run = telemetry.run;
  os << "== run ==\n";
  if (run.present) {
    os << "scheme " << run.scheme << ", " << run.parties << " parties, "
       << std::fixed << std::setprecision(0) << run.virtual_ms
       << " virtual ms, " << run.events_dispatched << " events\n";
    os << "pairs: completed " << run.pairs_completed << ", forwarded "
       << run.pairs_forwarded << ", dropped congestion "
       << run.pairs_dropped_congestion << " / awaiting-key "
       << run.pairs_dropped_awaiting_key << " / budget "
       << run.pairs_dropped_budget << " / layer-incomplete "
       << run.pairs_dropped_layer_incomplete << ", evicted "
       << run.pairs_evicted_incomplete << ", salvaged "
       << run.pairs_salvaged << ", keyframe relays "
       << run.keyframe_relays << "\n";
    if (!run.forwarded_by_layer.empty()) {
      os << "ladder: " << run.layers << " layers, forwarded by layer [";
      for (std::size_t q = 0; q < run.forwarded_by_layer.size(); ++q) {
        if (q) os << " ";
        os << "L" << q << "=" << run.forwarded_by_layer[q];
      }
      os << "], switches up " << run.layer_switches_up << " / down "
         << run.layer_switches_down << "\n";
    }
    if (run.fec) {
      const double media = static_cast<double>(
          run.downlink_bytes - std::min(run.downlink_bytes,
                                        run.downlink_parity_bytes));
      const double overhead =
          media > 0.0
              ? static_cast<double>(run.downlink_parity_bytes) / media
              : 0.0;
      os << "fec: parity " << run.uplink_parity_bytes << " B up / "
         << run.downlink_parity_bytes << " B down (" << std::fixed
         << std::setprecision(1) << 100.0 * overhead
         << "% of downlink media), recovered " << run.fragments_recovered
         << " fragments, repairs scheduled " << run.repairs_scheduled
         << " / abandoned " << run.repairs_abandoned << ", nack rounds "
         << run.nack_rounds << ", PLIs " << run.plis << "\n";
    }
    if (run.regions > 1) {
      os << "cascade: " << run.regions << " regions, ladders offered "
         << run.relay_ladders_offered << ", prefixes admitted "
         << run.relay_prefixes_admitted << " / dropped "
         << run.relay_prefixes_dropped_budget << ", layers relayed "
         << run.relay_layers_relayed << " (" << run.relay_bytes
         << " B), PLI relays " << run.relay_pli_relays
         << ", demand reports " << run.relay_demand_reports << "\n";
    }
  } else {
    os << "(no run line)\n";
  }
  os << "ledger: " << telemetry.hops.size() << " hop events, "
     << analysis.captured_pairs << " captured pairs, " << std::fixed
     << std::setprecision(2) << 100.0 * analysis.terminal_fraction
     << "% terminal\n";

  if (!analysis.streams.empty()) {
    os << "\n== streams (drop attribution) ==\n";
    os << std::left << std::setw(8) << "origin" << std::setw(6) << "sub"
       << std::right << std::setw(8) << "fwd" << std::setw(8) << "disp"
       << std::setw(8) << "stall" << std::setw(8) << "d_cong" << std::setw(8)
       << "d_key" << std::setw(8) << "d_bud" << std::setw(8) << "d_lyr"
       << "  " << std::left
       << std::setw(14) << "dominant" << std::right << std::setw(10)
       << "worst_iv" << std::setw(10) << "onset" << std::setw(8) << "bursts"
       << "\n";
    for (const StreamAnalysis& s : analysis.streams) {
      os << std::left << std::setw(8) << s.origin << std::setw(6)
         << s.subscriber << std::right << std::setw(8) << s.forwarded
         << std::setw(8) << s.displayed << std::setw(8) << s.stalled
         << std::setw(8) << s.dropped_congestion << std::setw(8)
         << s.dropped_awaiting_key << std::setw(8) << s.dropped_budget
         << std::setw(8) << s.dropped_layer_incomplete << "  "
         << std::left << std::setw(14)
         << (s.dominant_gate.empty() ? "-" : s.dominant_gate) << std::right
         << std::setw(10) << FmtMs(s.worst_interval_ms) << std::setw(10)
         << FmtMs(s.stall_onset_ms) << std::setw(8) << s.stall_bursts << "\n";
    }
    os << "first interval with conference-wide stall rate > 50%: "
       << FmtMs(analysis.global_stall_onset_ms) << " ms\n";
  }

  if (run.fec && !telemetry.streams.empty()) {
    os << "\n== streams (loss resilience) ==\n";
    os << std::left << std::setw(8) << "origin" << std::setw(6) << "sub"
       << std::right << std::setw(8) << "fwd" << std::setw(8) << "rend"
       << std::setw(10) << "stall" << std::setw(8) << "pli" << std::setw(8)
       << "nack" << std::setw(10) << "recov" << "\n";
    for (const StreamInfo& s : telemetry.streams) {
      os << std::left << std::setw(8) << s.origin << std::setw(6)
         << s.subscriber << std::right << std::setw(8) << s.forwarded
         << std::setw(8) << s.rendered << std::fixed << std::setprecision(3)
         << std::setw(10) << s.stall_rate << std::setw(8)
         << s.keyframe_requests << std::setw(8) << s.nacks << std::setw(10)
         << s.recovered << "\n";
    }
  }

  if (!analysis.shares.empty()) {
    os << "\n== allocator share oscillation ==\n";
    os << std::left << std::setw(6) << "sub" << std::setw(6) << "slot"
       << std::right << std::setw(10) << "mean" << std::setw(10) << "stddev"
       << std::setw(10) << "max_step" << std::setw(10) << "reversal" << "\n";
    for (const ShareStats& s : analysis.shares) {
      os << std::left << std::setw(6) << s.subscriber << std::setw(6) << s.slot
         << std::right << std::fixed << std::setprecision(4) << std::setw(10)
         << s.mean << std::setw(10) << s.stddev << std::setw(10) << s.max_step
         << std::setw(10) << s.reversals << "\n";
    }
  }

  // Per-shard loop utilization from the runtime.loop.<i>.* series the
  // sharded LoopGroup registers (one sample per dispatched event, so a
  // loop's queue_depth sample count is its share of the dispatch work).
  struct LoopRow {
    std::size_t dispatches = 0;
    double mean_depth = 0.0;
    double max_depth = 0.0;
    double mean_wake_ms = 0.0;
  };
  std::map<int, LoopRow> loops;
  for (const SeriesInfo& series : telemetry.series) {
    const std::string prefix = "runtime.loop.";
    if (series.name.rfind(prefix, 0) != 0) continue;
    const std::size_t dot = series.name.find('.', prefix.size());
    if (dot == std::string::npos) continue;
    const int loop_index =
        std::atoi(series.name.substr(prefix.size(), dot - prefix.size())
                      .c_str());
    const std::string metric = series.name.substr(dot + 1);
    LoopRow& row = loops[loop_index];
    double sum = 0.0;
    for (const auto& [t, v] : series.points) {
      (void)t;
      sum += v;
      if (metric == "queue_depth") row.max_depth = std::max(row.max_depth, v);
    }
    const double mean =
        series.points.empty()
            ? 0.0
            : sum / static_cast<double>(series.points.size());
    if (metric == "queue_depth") {
      row.dispatches = series.points.size() + series.evicted;
      row.mean_depth = mean;
    } else if (metric == "wake_latency_ms") {
      row.mean_wake_ms = mean;
    }
  }
  if (!loops.empty()) {
    std::size_t total = 0, busiest = 0;
    for (const auto& [index, row] : loops) {
      (void)index;
      total += row.dispatches;
      busiest = std::max(busiest, row.dispatches);
    }
    os << "\n== loop utilization (" << loops.size() << " shards) ==\n";
    os << std::left << std::setw(6) << "loop" << std::right << std::setw(12)
       << "dispatches" << std::setw(8) << "share" << std::setw(12)
       << "mean_depth" << std::setw(11) << "max_depth" << std::setw(14)
       << "mean_wake_ms" << "\n";
    for (const auto& [index, row] : loops) {
      const double share =
          total > 0 ? static_cast<double>(row.dispatches) /
                          static_cast<double>(total)
                    : 0.0;
      os << std::left << std::setw(6) << index << std::right << std::setw(12)
         << row.dispatches << std::fixed << std::setprecision(3)
         << std::setw(8) << share << std::setw(12) << row.mean_depth
         << std::setprecision(0) << std::setw(11) << row.max_depth
         << std::setprecision(3) << std::setw(14) << row.mean_wake_ms
         << "\n";
    }
    // Skew: the busiest loop's dispatch count over a perfectly even
    // split. 1.00 = balanced; the shard count is the upper bound.
    const double even =
        static_cast<double>(total) / static_cast<double>(loops.size());
    os << "skew (busiest / even share): " << std::fixed
       << std::setprecision(2)
       << (even > 0.0 ? static_cast<double>(busiest) / even : 0.0) << "\n";
  }

  if (!telemetry.series.empty()) {
    std::size_t points = 0;
    std::uint64_t evicted = 0;
    for (const SeriesInfo& series : telemetry.series) {
      points += series.points.size();
      evicted += series.evicted;
    }
    os << "\n== time series ==\n"
       << telemetry.series.size() << " series, " << points << " points, "
       << evicted << " evicted\n";
  }
}

}  // namespace livo::report
