// N-party volumetric conference driver (livo::conference).
//
// RunConference is the conference counterpart of core::RunLiVoSession:
// it wires N ParticipantActors and one SfuActor onto a single
// runtime::EventLoop, runs the loop to completion, and returns per-
// participant, per-remote-stream records plus the SFU's forwarding and
// allocation audit trail. Everything is driven by virtual time, so a
// ConferenceResult's Fingerprint() is bitwise identical across reruns and
// codec thread counts (tests/test_conference.cc asserts both).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conference/allocator.h"
#include "conference/cascade.h"
#include "conference/participant.h"
#include "conference/sfu.h"
#include "conference/topology.h"

namespace livo::conference {

// Admission control: RunConference rejects rosters above this cap rather
// than degrading everyone below usability.
inline constexpr int kMaxParties = 16;
// ConferenceResult::scheme of every conference run.
inline constexpr char kSchemeName[] = "LiVo-SFU";

struct ConferenceResult {
  std::string scheme;
  std::vector<ParticipantResult> participants;
  // Subscriber-downlink allocation audits; in a cascade, every edge's rows
  // concatenated in region order (subscriber indices stay roster-global).
  // Relay-pipe allocators do not audit here.
  std::vector<AllocationAuditRow> audits;
  // Direct: the single SFU's counters. Cascaded: every edge's counters
  // summed (forwarding is partitioned by subscriber region, so the sums
  // are the conference-wide totals).
  SfuStats sfu;
  // Cascade counters (all zero when regions == 1): edge stages + root.
  RelayStats relay;
  int regions = 1;
  int shards = 1;  // loop shards the run used; results-invariant
  // Ran with the src/fec loss-resilience subsystem enabled (gates the
  // FEC fields the telemetry writer emits).
  bool fec = false;
  std::uint64_t events_dispatched = 0;
  std::uint64_t events_scheduled = 0;
  double virtual_ms = 0.0;
  double duration_ms = 0.0;  // longest participant's nominal capture span
  double wall_ms = 0.0;      // excluded from Fingerprint()

  // FNV-1a over every virtual-time-deterministic field (per-stream
  // records, allocator audits, SFU counters). Two runs of the same
  // conference must agree bit for bit. Each record's marker_verified is
  // what the subscriber decoded, so a decoder fault moves the value.
  std::uint64_t Fingerprint() const;
};

// Runs one conference. Throws std::invalid_argument for a roster the SFU
// refuses to admit: fewer than 2 parties, more than kMaxParties, or a spec
// without a capture sequence.
ConferenceResult RunConference(const std::vector<ParticipantSpec>& specs,
                               const ConferenceOptions& options);

}  // namespace livo::conference
