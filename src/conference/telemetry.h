// Conference telemetry export (livo::conference).
//
// One JSONL file per run, self-contained for the offline analyzer
// (tools/livo_report): a `run` line with the SFU counters, one `stream`
// line per (subscriber, origin) pair, one `audit` line per closed
// allocation interval, one `hop` line per frame-ledger event, and one
// `timeseries` line per registered series. Written by RunConference next
// to the Chrome-trace export when LIVO_TRACE=1 (see DESIGN.md §8).
#pragma once

#include <ostream>

#include "conference/conference.h"

namespace livo::conference {

// Serializes `result` plus the current obs::FrameLedger and time-series
// registry contents. The run line echoes kAllocationIntervalMs as
// `interval_ms`, so the analyzer buckets hops without guessing.
void WriteConferenceTelemetry(std::ostream& os, const ConferenceResult& result);

}  // namespace livo::conference
