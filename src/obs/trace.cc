#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>

namespace livo::obs {
namespace {

std::atomic<bool> g_enabled{false};

// NaN means "no virtual clock active". One value per thread: each loop
// thread of a LoopGroup publishes its own shard's clock, and no other
// thread reads or clears it.
thread_local double t_virtual_now_ms = std::numeric_limits<double>::quiet_NaN();

// Bound chosen so a worst-case session (every stage instrumented, tens of
// thousands of frames) fits while a runaway per-pixel span cannot eat the
// heap: 64k events * 32 B = 2 MiB per thread.
constexpr std::size_t kMaxEventsPerThread = 1 << 16;

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::uint16_t depth = 0;   // touched only by the owner thread
  std::mutex mu;             // guards events/dropped against DrainEvents()
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

// Buffers are shared_ptr so events written by pipeline threads survive
// thread exit until the session dump drains them.
std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}
std::atomic<std::uint32_t> g_next_tid{1};

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    b->events.reserve(1024);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(b);
    return b;
  }();
  return *buffer;
}

void Emit(const TraceEvent& event) {
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);  // uncontended except on drain
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(event);
}

}  // namespace

bool TraceEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetTraceEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

double TraceNowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void SetVirtualNowMs(double now_ms) { t_virtual_now_ms = now_ms; }

void ClearVirtualNow() {
  t_virtual_now_ms = std::numeric_limits<double>::quiet_NaN();
}

bool HasVirtualNow() { return !std::isnan(t_virtual_now_ms); }

double VirtualNowMs() {
  return std::isnan(t_virtual_now_ms) ? -1.0 : t_virtual_now_ms;
}

void TraceInstant(const char* name) {
  if (!TraceEnabled()) return;
  TraceEvent event;
  event.name = name;
  event.ts_us = TraceNowUs();
  event.dur_us = -1.0;
  event.vt_ms = VirtualNowMs();
  ThreadBuffer& buffer = LocalBuffer();
  event.tid = buffer.tid;
  event.depth = buffer.depth;
  Emit(event);
}

const char* InternName(const std::string& name) {
  static std::mutex mu;
  static auto* pool = new std::vector<std::unique_ptr<std::string>>();
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& s : *pool) {
    if (*s == name) return s->c_str();
  }
  pool->push_back(std::make_unique<std::string>(name));
  return pool->back()->c_str();
}

std::vector<TraceEvent> DrainEvents(std::uint64_t* dropped_events) {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffers = Buffers();
  }
  std::vector<TraceEvent> out;
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
    buffer->events.clear();
    dropped += buffer->dropped;
    buffer->dropped = 0;
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  if (dropped_events != nullptr) *dropped_events = dropped;
  return out;
}

void WriteChromeTrace(std::ostream& os,
                      const std::vector<TraceEvent>& events) {
  const auto precision = os.precision(3);
  const auto flags = os.setf(std::ios::fixed, std::ios::floatfield);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << e.name << "\",\"cat\":\"livo\",";
    if (e.dur_us < 0.0) {
      os << "\"ph\":\"i\",\"s\":\"t\",";
    } else {
      os << "\"ph\":\"X\",\"dur\":" << e.dur_us << ",";
    }
    os << "\"ts\":" << e.ts_us << ",\"pid\":1,\"tid\":" << e.tid
       << ",\"args\":{\"depth\":" << e.depth;
    if (e.vt_ms >= 0.0) os << ",\"vt_ms\":" << e.vt_ms;
    os << "}}";
  }
  os << "\n]}\n";
  os.precision(precision);
  os.flags(flags);
}

ScopedSpan::ScopedSpan(const char* name)
    : name_(TraceEnabled() ? name : nullptr) {
  if (name_ == nullptr) return;
  start_us_ = TraceNowUs();
  start_vt_ms_ = VirtualNowMs();
  depth_ = LocalBuffer().depth++;
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  TraceEvent event;
  event.name = name_;
  event.ts_us = start_us_;
  event.dur_us = TraceNowUs() - start_us_;
  event.vt_ms = start_vt_ms_;
  ThreadBuffer& buffer = LocalBuffer();
  --buffer.depth;
  event.tid = buffer.tid;
  event.depth = depth_;
  Emit(event);
}

}  // namespace livo::obs
