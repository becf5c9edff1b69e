// Token-bucket rate limiter. The device models use one bucket per storage
// device to turn a configured bandwidth (bytes/s) into the process-clock
// delay a request of N bytes experiences, shared fairly across all
// threads hitting that device.
#pragma once

#include <cstdint>
#include <mutex>

#include "util/clock.h"

namespace monarch {

class RateLimiter {
 public:
  /// `rate_per_sec`: sustained token refill rate (e.g. device bytes/s).
  /// `burst`: bucket capacity; requests up to `burst` tokens can proceed
  /// immediately after an idle period. Defaults to 1/20 s worth of rate.
  explicit RateLimiter(double rate_per_sec, double burst = 0.0);

  /// Compute the time at which `tokens` tokens become available and
  /// reserve them. Returns how long the caller must wait (zero when the
  /// bucket covers the request). Never blocks by itself.
  [[nodiscard]] Duration Reserve(double tokens);

  /// Reserve, then sleep the returned wait on the process clock.
  void Acquire(double tokens);

  /// Change the refill rate (used when contention squeezes PFS
  /// bandwidth, and by the QoS broker when tenant shares shift). A
  /// defaulted burst is rescaled to 1/20 s of the new rate and the
  /// current balance clamped to it; an explicit burst is kept.
  void SetRate(double rate_per_sec);

  [[nodiscard]] double rate_per_sec() const;

 private:
  void RefillLocked(TimePoint now);

  mutable std::mutex mu_;
  double rate_;         ///< tokens per second
  double burst_;        ///< bucket capacity
  bool default_burst_;  ///< burst was derived from rate (tracks SetRate)
  double available_;    ///< current tokens; may go negative (debt model)
  TimePoint last_refill_;
};

}  // namespace monarch
