#include "core/tier_health.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "util/clock.h"

namespace monarch::core {
namespace {

TierHealthOptions FastOptions() {
  TierHealthOptions options;
  options.window = 8;
  options.min_samples = 4;
  options.error_threshold = 0.5;
  options.cooldown = Millis(5);
  options.half_open_successes = 2;
  return options;
}

TEST(TierHealthTest, StartsClosedAndAdmitsEverything) {
  TierHealth health("t", FastOptions());
  EXPECT_EQ(CircuitState::kClosed, health.state());
  EXPECT_TRUE(health.AllowRequest());
  EXPECT_EQ(0u, health.circuit_opens());
  EXPECT_EQ(0.0, health.error_rate());
}

TEST(TierHealthTest, HealthyTrafficNeverOpens) {
  TierHealth health("t", FastOptions());
  for (int i = 0; i < 100; ++i) health.RecordSuccess();
  EXPECT_EQ(CircuitState::kClosed, health.state());
  EXPECT_TRUE(health.AllowRequest());
}

TEST(TierHealthTest, OpensWhenErrorRateCrossesThreshold) {
  TierHealth health("t", FastOptions());
  for (int i = 0; i < 8; ++i) health.RecordFailure();
  EXPECT_EQ(CircuitState::kOpen, health.state());
  EXPECT_FALSE(health.AllowRequest());
  EXPECT_EQ(1u, health.circuit_opens());
  EXPECT_GE(health.error_rate(), 0.5);
}

TEST(TierHealthTest, FewSamplesAreNotJudged) {
  TierHealthOptions options = FastOptions();
  options.min_samples = 6;
  TierHealth health("t", options);
  // 5 failures < min_samples: all failures but no verdict yet.
  for (int i = 0; i < 5; ++i) health.RecordFailure();
  EXPECT_EQ(CircuitState::kClosed, health.state());
}

TEST(TierHealthTest, CooldownHalfOpensThenClosesOnProbeSuccesses) {
  testing::ManualClock clock;
  TierHealth health("t", FastOptions());
  for (int i = 0; i < 8; ++i) health.RecordFailure();
  ASSERT_EQ(CircuitState::kOpen, health.state());
  EXPECT_FALSE(health.AllowRequest());

  clock.Advance(FastOptions().cooldown - Duration(1));
  EXPECT_FALSE(health.AllowRequest());  // 1 ns short of the cooldown
  clock.Advance(Duration(1));
  EXPECT_TRUE(health.AllowRequest());  // first caller flips to half-open
  EXPECT_EQ(CircuitState::kHalfOpen, health.state());

  health.RecordSuccess();
  EXPECT_EQ(CircuitState::kHalfOpen, health.state());
  health.RecordSuccess();  // half_open_successes = 2
  EXPECT_EQ(CircuitState::kClosed, health.state());
  EXPECT_TRUE(health.AllowRequest());
  // Closing resets the window: the old failures don't linger.
  EXPECT_EQ(0.0, health.error_rate());
  EXPECT_EQ(1u, health.circuit_opens());
}

TEST(TierHealthTest, ProbeFailureReopensImmediately) {
  testing::ManualClock clock;
  TierHealth health("t", FastOptions());
  for (int i = 0; i < 8; ++i) health.RecordFailure();
  clock.Advance(FastOptions().cooldown);
  ASSERT_TRUE(health.AllowRequest());
  ASSERT_EQ(CircuitState::kHalfOpen, health.state());

  health.RecordFailure();
  EXPECT_EQ(CircuitState::kOpen, health.state());
  EXPECT_EQ(2u, health.circuit_opens());
  EXPECT_FALSE(health.AllowRequest());
}

TEST(TierHealthTest, DisabledTrackerNeverOpens) {
  TierHealthOptions options = FastOptions();
  options.enabled = false;
  TierHealth health("t", options);
  for (int i = 0; i < 100; ++i) health.RecordFailure();
  EXPECT_EQ(CircuitState::kClosed, health.state());
  EXPECT_TRUE(health.AllowRequest());
  EXPECT_EQ(0u, health.circuit_opens());
}

TEST(TierHealthTest, StateNamesAreStable) {
  EXPECT_STREQ("closed", CircuitStateName(CircuitState::kClosed));
  EXPECT_STREQ("half-open", CircuitStateName(CircuitState::kHalfOpen));
  EXPECT_STREQ("open", CircuitStateName(CircuitState::kOpen));
}

// The TSan-leg test: hammer the tracker from many threads through the
// whole open -> half-open -> close cycle and require it to land closed.
TEST(TierHealthTest, ConcurrentLifecycleReachesClosed) {
  TierHealthOptions options;
  options.window = 64;
  options.min_samples = 16;
  options.error_threshold = 0.5;
  options.cooldown = Millis(2);
  options.half_open_successes = 3;
  TierHealth health("t", options);

  // Phase 1: concurrent failures must trip the breaker exactly open.
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&health] {
        for (int i = 0; i < 200; ++i) {
          if (health.AllowRequest()) health.RecordFailure();
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(CircuitState::kOpen, health.state());
  EXPECT_GE(health.circuit_opens(), 1u);

  // Phase 2: after the cooldown, concurrent successful probes must close
  // it again — no thread may wedge the state machine half-open forever.
  PreciseSleep(Millis(5));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&health] {
        for (int i = 0; i < 200; ++i) {
          if (health.AllowRequest()) health.RecordSuccess();
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(CircuitState::kClosed, health.state());
  EXPECT_TRUE(health.AllowRequest());
}

}  // namespace
}  // namespace monarch::core
