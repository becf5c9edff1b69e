#include "util/clock.h"

#include <atomic>

namespace monarch {
namespace {
constinit RealClock g_real_clock;
constinit std::atomic<Clock*> g_process_clock{&g_real_clock};
}  // namespace

Clock& ProcessClock() noexcept {
  return *g_process_clock.load(std::memory_order_acquire);
}

Clock* ExchangeProcessClock(Clock* clock) noexcept {
  return g_process_clock.exchange(clock, std::memory_order_acq_rel);
}

}  // namespace monarch
