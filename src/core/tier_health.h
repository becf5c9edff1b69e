// TierHealth: per-tier failure tracking with a circuit breaker.
//
// Every storage driver records the outcome of its backend operations into
// a sliding window of the most recent results. When the failure share of
// that window crosses a threshold the circuit OPENS: the read path stops
// sending requests to the tier (they fall straight down the hierarchy to
// the PFS, which always holds the authoritative copy) instead of paying a
// retry storm per read. After a cooldown the circuit HALF-OPENS and lets
// probe requests through; enough consecutive successes CLOSE it again,
// any probe failure re-opens it. This is the Hoard/FanStore-style
// "degrade, don't abort" behaviour ISSUE 2 builds in.
//
// Concurrency: the window is a fixed ring of relaxed atomics (the error
// rate is deliberately approximate under contention — never torn, off by
// at most the number of in-flight recorders), and state transitions are
// serialised by a small mutex that is only touched when a transition is
// actually due, so the steady-state hot path stays lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

namespace monarch::core {

enum class CircuitState : int {
  kClosed = 0,    ///< healthy: all requests admitted
  kHalfOpen = 1,  ///< probing: requests admitted, outcomes decide the state
  kOpen = 2,      ///< degraded: requests routed around the tier
};

[[nodiscard]] const char* CircuitStateName(CircuitState state) noexcept;

struct TierHealthOptions {
  /// Master switch: disabled means AllowRequest() is always true and no
  /// outcome tracking happens (the seed repo's behaviour).
  bool enabled = true;

  /// Sliding window length (most recent operations considered).
  std::size_t window = 64;

  /// Don't judge a tier before this many outcomes are in the window
  /// (avoids opening on the first unlucky operation).
  std::size_t min_samples = 16;

  /// Open the circuit when failures/samples reaches this share.
  double error_threshold = 0.5;

  /// How long an open circuit waits before letting probes through.
  Duration cooldown = Millis(100);

  /// Consecutive half-open successes required to close the circuit.
  int half_open_successes = 3;
};

class TierHealth {
 public:
  TierHealth(std::string tier_name, TierHealthOptions options);

  TierHealth(const TierHealth&) = delete;
  TierHealth& operator=(const TierHealth&) = delete;

  /// Should a request be sent to this tier right now? Open circuits
  /// reject until the cooldown elapses, at which point the first caller
  /// flips the circuit to half-open and is admitted as a probe.
  [[nodiscard]] bool AllowRequest() noexcept;

  void RecordSuccess() noexcept;
  void RecordFailure() noexcept;

  [[nodiscard]] CircuitState state() const noexcept {
    return static_cast<CircuitState>(state_.load(std::memory_order_acquire));
  }

  /// Times the circuit transitioned closed/half-open -> open.
  [[nodiscard]] std::uint64_t circuit_opens() const noexcept {
    return opens_.load(std::memory_order_relaxed);
  }

  /// Failure share of the current window (approximate under concurrency).
  [[nodiscard]] double error_rate() const noexcept;

  [[nodiscard]] const std::string& tier_name() const noexcept {
    return name_;
  }
  [[nodiscard]] const TierHealthOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Push one outcome into the ring; returns the post-update failure
  /// share, or a negative value while fewer than min_samples outcomes
  /// have been recorded.
  double RecordOutcome(bool failure) noexcept;

  // Transitions (serialised by mu_; each re-checks state under the lock).
  void TransitionToOpen() noexcept;
  void TransitionToHalfOpen() noexcept;
  void TransitionToClosed() noexcept;
  void PublishTransition(const char* event) noexcept;

  const std::string name_;
  const TierHealthOptions options_;

  std::atomic<int> state_{static_cast<int>(CircuitState::kClosed)};
  std::vector<std::atomic<std::uint8_t>> window_;  ///< 1 = failure
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::int64_t> window_failures_{0};
  std::atomic<std::int64_t> opened_at_ns_{0};
  std::atomic<int> probe_successes_{0};
  std::atomic<std::uint64_t> opens_{0};
  std::mutex mu_;  ///< transitions only; never taken on the happy path
};

}  // namespace monarch::core
