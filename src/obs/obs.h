// livo::obs — umbrella header and session-level export.
//
// The metrics registry (obs/metrics.h) always records; it is cheap enough
// to stay on unconditionally. Span tracing, time series, the frame ledger
// and on-disk export are off by default. One environment variable turns
// all four on together, read by RunLiVoSession and RunConference:
//
//   LIVO_TRACE=1 ./build/examples/conference_session
//
// which makes every RunLiVoSession dump `<label>.trace.json` (Chrome
// trace-event format, loadable in chrome://tracing or Perfetto) and
// `<label>.metrics.jsonl` (one JSON metric per line) into
// LIVO_TRACE_DIR (default "."). A program that wants spans without the
// export calls SetTraceEnabled (obs/trace.h) itself.
#pragma once

#include <optional>
#include <string>

#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace livo::obs {

// Reads LIVO_TRACE / LIVO_TRACE_DIR once per process and, when LIVO_TRACE
// is set, turns on spans, time series and the frame ledger. Safe (and
// cheap) to call from every session entry point.
void AutoInitFromEnv();

struct SessionArtifacts {
  std::string trace_path;
  std::string metrics_path;  // empty when the file could not be written
};

// Under LIVO_TRACE, drains the span buffers and writes the trace and a
// metrics snapshot for the session identified by `label`. Filenames get a
// process-unique sequence number, so back-to-back sessions in one bench
// never overwrite each other. Returns nullopt without LIVO_TRACE.
std::optional<SessionArtifacts> DumpSessionArtifacts(const std::string& label);

}  // namespace livo::obs
