// Scoped spans and trace-event collection (livo::obs).
//
//   void LiVoSender::ProcessFrame(...) {
//     LIVO_SPAN("sender.encode");
//     ...
//   }
//
// When tracing is disabled (the default) a span costs one relaxed atomic
// load. When enabled, entry/exit timestamps land in a bounded per-thread
// event buffer (no allocation on the hot path after warm-up, overflow
// counted and dropped) together with a small thread id and the nesting
// depth maintained per thread. DrainEvents() collects everything recorded
// so far — including events from threads that have already exited, e.g.
// joined pipeline stages — and WriteChromeTrace() emits the Chrome
// trace-event JSON that chrome://tracing and Perfetto load directly.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace livo::obs {

struct TraceEvent {
  const char* name = "";  // must point at a string literal
  double ts_us = 0.0;     // microseconds since process trace epoch
  double dur_us = -1.0;   // < 0 marks an instant event
  double vt_ms = -1.0;    // virtual time at entry; < 0 when none published
  std::uint32_t tid = 0;  // small sequential id assigned per thread
  std::uint16_t depth = 0;
};

bool TraceEnabled();
void SetTraceEnabled(bool enabled);

// Microseconds on the steady clock relative to the first call.
double TraceNowUs();

// Virtual-time bridge. A running EventLoop publishes its current virtual
// time here (one thread-local store per dispatch) so spans, instants, log
// lines and time-series samples recorded on the loop's thread are stamped
// with that loop's virtual ms alongside the wall clock; each loop thread of
// a LoopGroup carries its own shard's clock. Spans on codec pool workers
// (util::SharedPool) carry no virtual time; a pool task that a waiting loop
// thread runs carries that thread's clock. Cleared when the loop exits.
void SetVirtualNowMs(double now_ms);
void ClearVirtualNow();
bool HasVirtualNow();
double VirtualNowMs();  // NaN-safe: returns -1.0 when none is published

// Records a zero-duration marker (stalls, keyframe requests, drops).
void TraceInstant(const char* name);

// Returns a process-lifetime pointer for a dynamic span name (e.g. a
// pipeline stage name built at runtime). Interned strings are never freed;
// call once per distinct name at setup time, not per event.
const char* InternName(const std::string& name);

// Moves all buffered events out of every thread buffer (oldest first per
// thread). `dropped_events`, when non-null, receives the total number of
// events lost to buffer overflow since the last drain.
std::vector<TraceEvent> DrainEvents(std::uint64_t* dropped_events = nullptr);

// Chrome trace-event format: {"traceEvents":[...]}.
void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events);

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;  // nullptr when tracing was off at entry
  double start_us_ = 0.0;
  double start_vt_ms_ = -1.0;
  std::uint16_t depth_ = 0;
};

}  // namespace livo::obs

#define LIVO_OBS_CONCAT_INNER(a, b) a##b
#define LIVO_OBS_CONCAT(a, b) LIVO_OBS_CONCAT_INNER(a, b)
#define LIVO_SPAN(name) \
  ::livo::obs::ScopedSpan LIVO_OBS_CONCAT(livo_span_, __LINE__)(name)
