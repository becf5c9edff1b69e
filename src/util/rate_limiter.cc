#include "util/rate_limiter.h"

#include <algorithm>
#include <cassert>

namespace monarch {

RateLimiter::RateLimiter(double rate_per_sec, double burst)
    : rate_(rate_per_sec),
      burst_(burst > 0.0 ? burst : rate_per_sec / 20.0),
      default_burst_(burst <= 0.0),
      available_(burst_),
      last_refill_(ProcessClock().Now()) {
  assert(rate_per_sec > 0.0 && "rate must be positive");
}

void RateLimiter::RefillLocked(TimePoint now) {
  const double elapsed = ToSeconds(now - last_refill_);
  if (elapsed <= 0.0) return;
  available_ = std::min(burst_, available_ + elapsed * rate_);
  last_refill_ = now;
}

Duration RateLimiter::Reserve(double tokens) {
  if (tokens <= 0.0) return kZeroDuration;
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked(ProcessClock().Now());
  available_ -= tokens;
  if (available_ >= 0.0) return kZeroDuration;
  // Debt model: the caller waits until its share of the deficit refills.
  return FromSeconds(-available_ / rate_);
}

void RateLimiter::Acquire(double tokens) {
  ProcessClock().SleepFor(Reserve(tokens));
}

void RateLimiter::SetRate(double rate_per_sec) {
  assert(rate_per_sec > 0.0);
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked(ProcessClock().Now());
  rate_ = rate_per_sec;
  // A defaulted burst tracks the rate (1/20 s worth); an explicit burst
  // is the caller's contract and stays put. Either way the balance must
  // not exceed the cap, or a big rate-down leaves a stale free bucket —
  // with many per-tenant limiters that adds up to a leaky total.
  if (default_burst_) burst_ = rate_ / 20.0;
  available_ = std::min(available_, burst_);
}

double RateLimiter::rate_per_sec() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rate_;
}

}  // namespace monarch
