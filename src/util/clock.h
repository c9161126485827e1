// Time abstractions.
//
// Experiments run against a deterministic SimClock (milliseconds since
// session start) so that network emulation, frame pacing, and latency
// accounting are reproducible; the live pipeline uses WallClock. Stopwatch
// measures real compute cost of pipeline stages for Table 6.
#pragma once

#include <chrono>
#include <cstdint>

namespace livo::util {

// Monotonic clock interface in milliseconds (double for sub-ms resolution).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual double NowMs() const = 0;
};

// Deterministic simulated clock, advanced explicitly by the driver.
class SimClock : public Clock {
 public:
  double NowMs() const override { return now_ms_; }
  void AdvanceMs(double ms) { now_ms_ += ms; }
  void SetMs(double ms) { now_ms_ = ms; }

 private:
  double now_ms_ = 0.0;
};

// Real monotonic clock.
class WallClock : public Clock {
 public:
  double NowMs() const override {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double, std::milli>(now).count();
  }
};

// Measures elapsed wall time; used for per-stage latency accounting.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Exponentially weighted moving average, used for smoothed RTT estimates
// (the paper halves a smoothed application-level RTT to obtain the one-way
// delay for frustum prediction).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.125) : alpha_(alpha) {}

  void Add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace livo::util
