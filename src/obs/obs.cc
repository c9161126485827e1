#include "obs/obs.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <fstream>

namespace livo::obs {
namespace {

std::atomic<std::uint64_t> g_dump_sequence{0};

std::string SanitizeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                    c == '_' || c == '.';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("session") : out;
}

bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

// The process's LIVO_TRACE / LIVO_TRACE_DIR, read on first use.
struct EnvExport {
  bool on = false;
  std::string output_dir = ".";
};

const EnvExport& Export() {
  static const EnvExport env = [] {
    EnvExport e;
    if (!EnvFlagSet("LIVO_TRACE")) return e;
    e.on = true;
    if (const char* dir = std::getenv("LIVO_TRACE_DIR")) {
      if (dir[0] != '\0') e.output_dir = dir;
    }
    SetTraceEnabled(true);
    SetTimeSeriesEnabled(true);
    FrameLedger::Get().SetEnabled(true);
    LIVO_LOG(Info) << "tracing enabled via LIVO_TRACE, artifacts -> "
                   << e.output_dir;
    return e;
  }();
  return env;
}

}  // namespace

void AutoInitFromEnv() { (void)Export(); }

std::optional<SessionArtifacts> DumpSessionArtifacts(
    const std::string& label) {
  const EnvExport& env = Export();
  if (!env.on) return std::nullopt;

  const std::uint64_t seq =
      g_dump_sequence.fetch_add(1, std::memory_order_relaxed);
  const std::string stem = env.output_dir + "/" + SanitizeLabel(label) +
                           "_" + std::to_string(seq);

  SessionArtifacts artifacts;
  artifacts.trace_path = stem + ".trace.json";
  std::uint64_t dropped = 0;
  const std::vector<TraceEvent> events = DrainEvents(&dropped);
  {
    std::ofstream out(artifacts.trace_path);
    if (!out) {
      LIVO_LOG(Error) << "cannot write trace file " << artifacts.trace_path;
      return std::nullopt;
    }
    WriteChromeTrace(out, events);
  }
  if (dropped > 0) {
    LIVO_LOG(Warn) << "trace buffers overflowed: " << dropped
                   << " events dropped (session " << label << ")";
  }

  artifacts.metrics_path = stem + ".metrics.jsonl";
  {
    std::ofstream out(artifacts.metrics_path);
    if (out) {
      Registry::Get().WriteJsonl(out);
    } else {
      LIVO_LOG(Error) << "cannot write metrics file "
                      << artifacts.metrics_path;
      artifacts.metrics_path.clear();
    }
  }

  LIVO_LOG(Info) << "session \"" << label << "\": " << events.size()
                 << " trace events -> " << artifacts.trace_path;
  return artifacts;
}

}  // namespace livo::obs
