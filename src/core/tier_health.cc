#include "core/tier_health.h"

#include <algorithm>

#include "obs/event_tracer.h"
#include "obs/json.h"
#include "util/logging.h"

namespace monarch::core {

const char* CircuitStateName(CircuitState state) noexcept {
  switch (state) {
    case CircuitState::kClosed: return "closed";
    case CircuitState::kHalfOpen: return "half-open";
    case CircuitState::kOpen: return "open";
  }
  return "unknown";
}

TierHealth::TierHealth(std::string tier_name, TierHealthOptions options)
    : name_(std::move(tier_name)),
      options_(options),
      window_(std::max<std::size_t>(1, options.window)) {
  for (auto& slot : window_) {
    slot.store(0, std::memory_order_relaxed);
  }
}

bool TierHealth::AllowRequest() noexcept {
  if (!options_.enabled) return true;
  switch (state()) {
    case CircuitState::kClosed:
    case CircuitState::kHalfOpen:
      return true;
    case CircuitState::kOpen: {
      const std::int64_t opened = opened_at_ns_.load(std::memory_order_acquire);
      if (NowNs() - opened < options_.cooldown.count()) return false;
      TransitionToHalfOpen();
      // Whether this caller won the transition race or another did, the
      // circuit is no longer rejecting: admit the probe.
      return state() != CircuitState::kOpen;
    }
  }
  return true;
}

double TierHealth::RecordOutcome(bool failure) noexcept {
  const std::uint64_t seq = cursor_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t pos = static_cast<std::size_t>(seq % window_.size());
  const std::uint8_t value = failure ? 1 : 0;
  const std::uint8_t old =
      window_[pos].exchange(value, std::memory_order_relaxed);
  window_failures_.fetch_add(static_cast<std::int64_t>(value) - old,
                             std::memory_order_relaxed);
  const std::uint64_t samples = std::min<std::uint64_t>(
      seq + 1, static_cast<std::uint64_t>(window_.size()));
  if (samples < options_.min_samples) return -1.0;
  const std::int64_t failures =
      std::max<std::int64_t>(0, window_failures_.load(std::memory_order_relaxed));
  return static_cast<double>(failures) / static_cast<double>(samples);
}

double TierHealth::error_rate() const noexcept {
  const std::uint64_t seen = cursor_.load(std::memory_order_relaxed);
  const std::uint64_t samples = std::min<std::uint64_t>(
      seen, static_cast<std::uint64_t>(window_.size()));
  if (samples == 0) return 0.0;
  const std::int64_t failures =
      std::max<std::int64_t>(0, window_failures_.load(std::memory_order_relaxed));
  return static_cast<double>(failures) / static_cast<double>(samples);
}

void TierHealth::RecordSuccess() noexcept {
  if (!options_.enabled) return;
  RecordOutcome(false);
  if (state() == CircuitState::kHalfOpen &&
      probe_successes_.fetch_add(1, std::memory_order_acq_rel) + 1 >=
          options_.half_open_successes) {
    TransitionToClosed();
  }
}

void TierHealth::RecordFailure() noexcept {
  if (!options_.enabled) return;
  const double rate = RecordOutcome(true);
  switch (state()) {
    case CircuitState::kClosed:
      if (rate >= options_.error_threshold) TransitionToOpen();
      break;
    case CircuitState::kHalfOpen:
      // A failed probe means the tier has not recovered: re-open and
      // restart the cooldown.
      TransitionToOpen();
      break;
    case CircuitState::kOpen:
      break;  // stragglers that were already in flight
  }
}

void TierHealth::TransitionToOpen() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  if (state() == CircuitState::kOpen) return;
  opened_at_ns_.store(NowNs(), std::memory_order_release);
  state_.store(static_cast<int>(CircuitState::kOpen),
               std::memory_order_release);
  opens_.fetch_add(1, std::memory_order_relaxed);
  MLOG_WARN << "tier '" << name_ << "': circuit OPEN (error rate "
            << error_rate() << " over the last "
            << std::min<std::uint64_t>(cursor_.load(), window_.size())
            << " ops); routing reads around this tier";
  PublishTransition("tier.circuit_open");
}

void TierHealth::TransitionToHalfOpen() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  if (state() != CircuitState::kOpen) return;
  probe_successes_.store(0, std::memory_order_release);
  state_.store(static_cast<int>(CircuitState::kHalfOpen),
               std::memory_order_release);
  MLOG_INFO << "tier '" << name_ << "': circuit HALF-OPEN, probing";
  PublishTransition("tier.circuit_half_open");
}

void TierHealth::TransitionToClosed() noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  if (state() != CircuitState::kHalfOpen) return;
  // Reset the window so the failures that opened the circuit don't
  // immediately re-open it. Concurrent recorders may race the reset; the
  // count is clamped at read time, so drift is bounded and harmless.
  for (auto& slot : window_) slot.store(0, std::memory_order_relaxed);
  window_failures_.store(0, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
  state_.store(static_cast<int>(CircuitState::kClosed),
               std::memory_order_release);
  MLOG_INFO << "tier '" << name_ << "': circuit CLOSED, tier recovered";
  PublishTransition("tier.circuit_close");
}

void TierHealth::PublishTransition(const char* event) noexcept {
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant(event, "resilience",
                         "\"tier\":" + obs::JsonQuote(name_));
  }
}

}  // namespace monarch::core
