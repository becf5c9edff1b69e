#include "util/rate_limiter.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "../test_support.h"
#include "util/clock.h"

namespace monarch {
namespace {

TEST(RateLimiterTest, BurstPassesImmediately) {
  RateLimiter limiter(/*rate=*/1000.0, /*burst=*/100.0);
  EXPECT_EQ(kZeroDuration, limiter.Reserve(50.0));
  EXPECT_EQ(kZeroDuration, limiter.Reserve(50.0));
}

TEST(RateLimiterTest, DeficitProducesProportionalWait) {
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/1000.0, /*burst=*/10.0);
  limiter.Acquire(10.0);  // exhaust burst
  EXPECT_EQ(kZeroDuration, clock.Elapsed());
  // 500 tokens over at 1000/s -> a 0.5 s wait.
  EXPECT_EQ(Millis(500), limiter.Reserve(500.0));
}

TEST(RateLimiterTest, ZeroTokensFree) {
  RateLimiter limiter(100.0);
  EXPECT_EQ(kZeroDuration, limiter.Reserve(0.0));
  EXPECT_EQ(kZeroDuration, limiter.Reserve(-5.0));
}

TEST(RateLimiterTest, RefillsOverTime) {
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/10000.0, /*burst=*/100.0);
  limiter.Acquire(100.0);
  EXPECT_EQ(kZeroDuration, clock.Elapsed());  // the burst covered it
  clock.Advance(Millis(20));  // refills 200 tokens, capped at burst=100
  EXPECT_EQ(kZeroDuration, limiter.Reserve(90.0));
}

TEST(RateLimiterTest, SetRateTakesEffect) {
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/100.0, /*burst=*/1.0);
  limiter.SetRate(10000.0);
  EXPECT_DOUBLE_EQ(10000.0, limiter.rate_per_sec());
  limiter.Acquire(1.0);
  // 100 tokens at 10000/s -> 10 ms, not the old rate's 1 s.
  EXPECT_EQ(Millis(10), limiter.Reserve(100.0));
}

TEST(RateLimiterTest, SustainedThroughputMatchesRate) {
  // Acquire 40 x 25 tokens at rate 5000/s: the burst covers the first,
  // each of the other 39 waits 25/5000 s = 5 ms.
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/5000.0, /*burst=*/25.0);
  for (int i = 0; i < 40; ++i) limiter.Acquire(25.0);
  EXPECT_EQ(Millis(195), clock.Elapsed());
}

TEST(RateLimiterTest, ConcurrentAcquirersShareTheRate) {
  RateLimiter limiter(/*rate=*/10000.0, /*burst=*/100.0);
  const Stopwatch timer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&limiter] {
      for (int i = 0; i < 10; ++i) limiter.Acquire(50.0);
    });
  }
  for (auto& t : threads) t.join();
  // 2000 tokens total at 10000/s -> >= ~0.19s regardless of thread count.
  EXPECT_GT(timer.ElapsedSeconds(), 0.12);
}

TEST(RateLimiterTest, BurstCapClampsIdleRefill) {
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/100000.0, /*burst=*/50.0);
  limiter.Acquire(50.0);      // drain the bucket
  clock.Advance(Millis(50));  // would refill 5000 tokens uncapped
  // Only the 50-token cap survives the idle period: the first 50 are
  // free, the next request owes a full bucket of debt (50/100000 s).
  EXPECT_EQ(kZeroDuration, limiter.Reserve(50.0));
  EXPECT_EQ(Micros(500), limiter.Reserve(50.0));
}

TEST(RateLimiterTest, DefaultBurstIsTwentiethOfRate) {
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/2000.0);  // default burst = 100 tokens
  EXPECT_EQ(kZeroDuration, limiter.Reserve(100.0));
  // The bucket is now empty; the next 100 tokens owe a full bucket of
  // debt at 2000/s -> 50 ms.
  EXPECT_EQ(Millis(50), limiter.Reserve(100.0));
}

TEST(RateLimiterTest, RefillRoundingAccumulatesSmallSlices) {
  // Many sub-token reservations must not each round their refill down
  // to zero: 200 x 0.5 tokens at 1000/s is 0.1s of work, not 100 stalls.
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/1000.0, /*burst=*/1.0);
  limiter.Acquire(1.0);  // exhaust burst
  EXPECT_EQ(kZeroDuration, clock.Elapsed());
  for (int i = 0; i < 200; ++i) limiter.Acquire(0.5);
  EXPECT_EQ(Millis(100), clock.Elapsed());
}

TEST(RateLimiterTest, SetRateRescalesDefaultBurstAndClampsBalance) {
  // Defaulted burst (rate/20 = 5000 tokens) must shrink with a big
  // rate-down, and the already-banked balance must be clamped to it —
  // otherwise every rate change leaves a stale free bucket behind (the
  // per-tenant QoS limiters are re-rated constantly).
  testing::ManualClock clock;
  RateLimiter limiter(/*rate=*/100000.0);
  limiter.SetRate(1000.0);  // new default burst: 50 tokens
  EXPECT_EQ(kZeroDuration, limiter.Reserve(50.0));
  EXPECT_EQ(Millis(200), limiter.Reserve(200.0));  // 200/1000 s of debt
}

TEST(RateLimiterTest, SetRateKeepsExplicitBurst) {
  RateLimiter limiter(/*rate=*/1000.0, /*burst=*/500.0);
  limiter.SetRate(100.0);  // explicit burst is the caller's contract
  EXPECT_EQ(kZeroDuration, limiter.Reserve(500.0));
}

TEST(RateLimiterTest, ConcurrentAcquirersSeeRateChange) {
  // Four threads grind through a slow bucket while the rate is raised
  // 100x mid-flight: the whole run must finish far sooner than the old
  // rate would allow, and the debt model must not lose tokens.
  RateLimiter limiter(/*rate=*/1000.0, /*burst=*/10.0);
  const Stopwatch timer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&limiter] {
      for (int i = 0; i < 10; ++i) limiter.Acquire(100.0);
    });
  }
  PreciseSleep(Millis(50));
  limiter.SetRate(100000.0);
  for (auto& t : threads) t.join();
  // 4000 tokens at the old 1000/s would take ~4s; after the bump the
  // remainder drains at 100000/s, so well under 2s total.
  EXPECT_LT(timer.ElapsedSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(100000.0, limiter.rate_per_sec());
}

}  // namespace
}  // namespace monarch
