// Shared evaluation harness for the benches (§4).
//
// Several figures consume the same (scheme x video x user-trace x
// net-trace) matrix of sessions. Running it is the dominant cost of the
// benchmark suite, so this module runs the matrix once and caches the
// session aggregates on disk; every bench binary loads the same results.
// Delete the cache directory (./.bench_cache) to force a re-run.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/draco_oracle.h"
#include "core/meshreduce.h"
#include "core/session.h"
#include "core/types.h"
#include "sim/dataset.h"
#include "sim/nettrace.h"
#include "sim/usertrace.h"

namespace livo::core {

enum class Scheme {
  kLiVo,
  kLiVoNoCull,
  kLiVoNoAdapt,
  kMeshReduce,
  kDracoOracle,
};

const char* SchemeName(Scheme scheme);

// Aggregates persisted to the cache (per session; frame records dropped).
struct SessionSummary {
  std::string scheme;
  std::string video;
  std::string user_trace;
  std::string net_trace;
  double pssim_geometry = 0.0;
  double pssim_color = 0.0;
  double stall_rate = 0.0;
  double fps = 0.0;
  double target_fps = 30.0;
  double latency_ms = 0.0;
  double throughput_mbps = 0.0;
  double capacity_mbps = 0.0;
  double utilization = 0.0;

  static SessionSummary FromResult(const SessionResult& r);
};

struct MatrixConfig {
  sim::ScaleProfile profile = sim::ScaleProfile::Default();
  int frames = 48;
  int user_traces = 3;        // orbit / walk-in / focus (§4.1)
  double trace_duration_s = 40.0;
  std::vector<Scheme> schemes{Scheme::kLiVo, Scheme::kLiVoNoCull,
                              Scheme::kLiVoNoAdapt, Scheme::kMeshReduce,
                              Scheme::kDracoOracle};
  std::vector<std::string> videos{"band2", "dance5", "office1", "pizza1",
                                  "toddler4"};
  bool both_traces = true;    // trace-1 and trace-2

  // Stable content hash for the cache key.
  std::string CacheKey() const;
};

// Builds the LiVo configuration for a scheme at a profile's scale.
LiVoConfig MakeLiVoConfig(Scheme scheme, const sim::ScaleProfile& profile);
ReplayOptions MakeReplayOptions(const sim::ScaleProfile& profile);

// Runs one scheme over one (sequence, user, net) tuple.
SessionResult RunScheme(Scheme scheme, const sim::CapturedSequence& sequence,
                        const sim::UserTrace& user,
                        const sim::BandwidthTrace& net,
                        const sim::ScaleProfile& profile);

// Runs (or loads from ./.bench_cache) the whole matrix.
std::vector<SessionSummary> RunOrLoadMatrix(const MatrixConfig& config,
                                            bool verbose = true);

// --- Aggregation helpers used by the bench printers ---

// Mean of a field over summaries matching the given filters ("" = any).
struct Filter {
  std::string scheme = "";
  std::string video = "";
  std::string net_trace = "";
};

std::vector<const SessionSummary*> Select(
    const std::vector<SessionSummary>& all, const Filter& filter);

double MeanOf(const std::vector<const SessionSummary*>& rows,
              double SessionSummary::* field);
double StdOf(const std::vector<const SessionSummary*>& rows,
             double SessionSummary::* field);

}  // namespace livo::core
