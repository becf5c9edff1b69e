// Time helpers: duration types, the stopwatch, and the one process clock.
// Code that ACTS on time (modelled sleeps, token buckets, backoff,
// breaker, outage and quarantine windows) goes through ProcessClock();
// code that only MEASURES time reads SteadyClock (DESIGN.md "Time").
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace monarch {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;
using Duration = std::chrono::nanoseconds;

inline constexpr Duration kZeroDuration = Duration::zero();

inline Duration Micros(std::int64_t us) {
  return std::chrono::duration_cast<Duration>(std::chrono::microseconds(us));
}
inline Duration Millis(std::int64_t ms) {
  return std::chrono::duration_cast<Duration>(std::chrono::milliseconds(ms));
}
inline double ToSeconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}
inline Duration FromSeconds(double s) {
  return std::chrono::duration_cast<Duration>(std::chrono::duration<double>(s));
}

/// Monotonic elapsed-time measurement.
class Stopwatch {
 public:
  Stopwatch() : start_(SteadyClock::now()) {}

  void Restart() { start_ = SteadyClock::now(); }

  [[nodiscard]] Duration Elapsed() const { return SteadyClock::now() - start_; }
  [[nodiscard]] double ElapsedSeconds() const { return ToSeconds(Elapsed()); }

 private:
  TimePoint start_;
};

/// Sleep that stays accurate for sub-millisecond waits: sleeps the bulk,
/// spins the tail. Device models issue many ~10-100us waits where plain
/// sleep_for overshoots badly under CFS. RealClock sleeps with it.
inline void PreciseSleep(Duration d) {
  if (d <= kZeroDuration) return;
  const TimePoint deadline = SteadyClock::now() + d;
  constexpr Duration kSpinThreshold = std::chrono::microseconds(120);
  if (d > kSpinThreshold) {
    std::this_thread::sleep_for(d - kSpinThreshold);
  }
  while (SteadyClock::now() < deadline) {
    std::this_thread::yield();
  }
}

/// A source of "now" that can also block the caller until a later now.
class Clock {
 public:
  virtual ~Clock() = default;

  [[nodiscard]] virtual TimePoint Now() const = 0;
  /// Blocks for `d` of this clock's time; non-positive `d` returns at once.
  virtual void SleepFor(Duration d) = 0;
  /// Blocks until Now() >= `deadline`.
  void SleepUntil(TimePoint deadline) { SleepFor(deadline - Now()); }
};

/// Wall time: steady_clock, sleeping with PreciseSleep.
class RealClock final : public Clock {
 public:
  [[nodiscard]] TimePoint Now() const override { return SteadyClock::now(); }
  void SleepFor(Duration d) override { PreciseSleep(d); }
};

/// The process clock: a RealClock unless a test installed another.
[[nodiscard]] Clock& ProcessClock() noexcept;

/// ProcessClock().Now() in ns since its epoch, the form lock-free
/// deadlines are kept in (never 0, so 0 can mean "no deadline").
[[nodiscard]] inline std::int64_t NowNs() noexcept {
  return Duration(ProcessClock().Now().time_since_epoch()).count();
}

/// Makes `clock` the process clock and returns the one it replaced. For
/// tests only: ManualClock (tests/test_support.h) is the scoped override
/// built on it, installed before the objects under test.
Clock* ExchangeProcessClock(Clock* clock) noexcept;

}  // namespace monarch
