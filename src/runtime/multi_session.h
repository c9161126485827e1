// N concurrent replay sessions multiplexed on a sharded loop group
// (livo::runtime).
//
// Each session keeps its own sender/receiver/channel/records (full result
// isolation); the loop group interleaves their events in virtual-time
// order. Two link topologies:
//   * independent (default): every session replays its own
//     SessionSpec::net_trace on a private LinkEmulator — measures scheduler
//     throughput (events/sec) without cross-session coupling. Sessions are
//     independent domains, so `shards` > 1 runs them on that many loop
//     threads (loop_group.h) with bit-identical results;
//   * shared bottleneck: all sessions' packets serialize through one
//     SharedLink replaying MultiSessionOptions::shared_trace — the
//     contention setting (GCC fairness, queue interactions) the ROADMAP's
//     production-scale north star needs. The link couples every session at
//     event fidelity, so the whole run is one domain and extra shards
//     merely idle (the domain rule in DESIGN.md §11).
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.h"
#include "runtime/session_actor.h"
#include "sim/nettrace.h"

namespace livo::runtime {

struct MultiSessionOptions {
  // When true, all sessions share one bottleneck link replaying
  // shared_trace from its start, time-compressed like every replay
  // (core::ReplayOptions::trace_time_accel), instead of private links.
  bool share_link = false;
  sim::BandwidthTrace shared_trace;
  net::LinkConfig shared_link_config;  // bandwidth_scale applied to the trace
  // Event-loop shards (threads). Results are bit-identical for any value;
  // only wall time changes. Ignored (one domain) when share_link is set.
  int shards = 1;
};

struct MultiSessionResult {
  std::vector<core::SessionResult> sessions;  // same order as the specs
  std::uint64_t events_dispatched = 0;  // summed over shards
  std::uint64_t events_scheduled = 0;
  double virtual_ms = 0.0;  // virtual time of the globally last event
  double wall_ms = 0.0;     // host time spent running the loops
  int shards = 1;           // shard count the run actually used
};

// Runs every spec to completion on a LoopGroup (options.shards loops) and
// returns the per-session results plus scheduler statistics.
MultiSessionResult RunMultiSession(std::vector<SessionSpec> specs,
                                   const MultiSessionOptions& options = {});

// FNV-1a over every virtual-time-deterministic field of the result (the
// same field set tests/test_runtime.cc's ExpectSessionsEquivalent checks,
// plus the scheduler totals). Bit-identical across shard counts, reruns,
// and codec thread counts; wall-clock-derived fields (wall_ms, shards,
// mean_latency_ms) are excluded.
std::uint64_t MultiSessionFingerprint(const MultiSessionResult& result);

}  // namespace livo::runtime
