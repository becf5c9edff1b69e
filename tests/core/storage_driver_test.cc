#include "core/storage_driver.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <string_view>
#include <thread>
#include <vector>

#include "../test_support.h"
#include "obs/metrics_registry.h"
#include "storage/faulty_engine.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

using monarch::testing::Bytes;

StorageDriver MakeDriver(std::uint64_t quota, bool read_only = false) {
  return StorageDriver("tier", std::make_shared<storage::MemoryEngine>(),
                       quota, read_only);
}

TEST(StorageDriverTest, ReserveWithinQuotaSucceeds) {
  auto driver = MakeDriver(100);
  EXPECT_TRUE(driver.Reserve(60));
  EXPECT_EQ(60u, driver.occupancy_bytes());
  EXPECT_EQ(40u, driver.free_bytes());
  EXPECT_TRUE(driver.Reserve(40));
  EXPECT_EQ(0u, driver.free_bytes());
}

TEST(StorageDriverTest, ReserveBeyondQuotaFails) {
  auto driver = MakeDriver(100);
  EXPECT_TRUE(driver.Reserve(80));
  EXPECT_FALSE(driver.Reserve(21));
  EXPECT_EQ(80u, driver.occupancy_bytes()) << "failed reserve must not leak";
  EXPECT_TRUE(driver.Reserve(20));
}

TEST(StorageDriverTest, ReleaseReturnsQuota) {
  auto driver = MakeDriver(100);
  ASSERT_TRUE(driver.Reserve(100));
  driver.Release(30);
  EXPECT_EQ(70u, driver.occupancy_bytes());
  EXPECT_TRUE(driver.Reserve(30));
}

TEST(StorageDriverTest, ZeroQuotaMeansUnlimited) {
  auto driver = MakeDriver(0);
  EXPECT_TRUE(driver.Reserve(1ULL << 40));
  EXPECT_EQ(UINT64_MAX, MakeDriver(0).free_bytes());
}

TEST(StorageDriverTest, ReadOnlyTierRefusesReserveAndWrite) {
  auto driver = MakeDriver(0, /*read_only=*/true);
  EXPECT_FALSE(driver.Reserve(1));
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition,
                     driver.Write("f", Bytes("x")));
  EXPECT_STATUS_CODE(StatusCode::kFailedPrecondition, driver.Delete("f"));
}

TEST(StorageDriverTest, WriteReadDeletePassThrough) {
  auto driver = MakeDriver(1000);
  ASSERT_OK(driver.Write("f", Bytes("hello")));
  std::vector<std::byte> buf(5);
  auto read = driver.Read("f", 0, buf);
  ASSERT_OK(read);
  EXPECT_EQ(5u, read.value());
  ASSERT_OK(driver.Delete("f"));
  EXPECT_STATUS_CODE(StatusCode::kNotFound, driver.Read("f", 0, buf));
}

TEST(StorageDriverTest, ConcurrentReservesNeverOverflowQuota) {
  auto driver = MakeDriver(10000);
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (driver.Reserve(7)) granted.fetch_add(7);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), driver.occupancy_bytes());
  EXPECT_LE(driver.occupancy_bytes(), 10000u);
  // 8000 attempts x 7 bytes = 56000 demanded; quota must be ~fully used.
  EXPECT_GE(driver.occupancy_bytes(), 10000u - 6);
}

TEST(StorageDriverTest, FreeBytesSaturatesAtZero) {
  auto driver = MakeDriver(10);
  ASSERT_TRUE(driver.Reserve(10));
  EXPECT_EQ(0u, driver.free_bytes());
}

// The four engine ops share one retry helper. Each case drives one op
// through a FaultyEngine on a ManualClock, so the waits are exact.
enum class DriverOp { kRead, kReadZeroCopy, kWrite, kWriteAt };

class StorageDriverRetryTest : public ::testing::TestWithParam<DriverOp> {
 protected:
  /// Every delay the driver's Backoff hands out for `path` on `tier`:
  /// the jitter salt is hash(tier) ^ hash(path) for all four ops.
  static std::vector<Duration> Schedule(const RetryPolicy& policy,
                                        std::string_view tier,
                                        std::string_view path) {
    Backoff backoff(policy, std::hash<std::string_view>{}(tier) ^
                                std::hash<std::string_view>{}(path));
    std::vector<Duration> delays;
    while (const auto delay = backoff.NextDelay()) delays.push_back(*delay);
    return delays;
  }

  /// Fails the op under test `n` times, then runs it once.
  Status Run(StorageDriver& driver, storage::FaultyEngine& faulty, int n) {
    std::vector<std::byte> buf(3);
    switch (GetParam()) {
      case DriverOp::kRead:
        faulty.FailNextReads(n);
        return driver.Read("f", 0, buf).status();
      case DriverOp::kReadZeroCopy:
        faulty.FailNextReads(n);
        return driver.ReadZeroCopy("f", 0, 3).status();
      case DriverOp::kWrite:
        faulty.FailNextWrites(n);
        return driver.Write("f", testing::Bytes("xyz"));
      case DriverOp::kWriteAt:
        faulty.FailNextWrites(n);
        return driver.WriteAt("f", 1, testing::Bytes("yz"));
    }
    return InternalError("unknown op");
  }

  testing::ManualClock clock_;
  obs::Counter* retries_ = obs::MetricsRegistry::Global().GetCounter(
      "storage.retries", "ops",
      "engine operations retried after a transient (UNAVAILABLE) failure");
};

TEST_P(StorageDriverRetryTest, TransientFailureRetriesOnTheBackoffSchedule) {
  const RetryPolicy policy;
  auto faulty = std::make_shared<storage::FaultyEngine>(
      std::make_shared<storage::MemoryEngine>(),
      storage::FaultyEngine::FaultSpec{});
  StorageDriver driver("local", faulty, 0, false, policy);
  ASSERT_OK(faulty->Write("f", testing::Bytes("abc")));
  const std::uint64_t retries_before = retries_->Value();

  ASSERT_OK(Run(driver, *faulty, 2));

  const std::vector<Duration> schedule = Schedule(policy, "local", "f");
  ASSERT_GE(schedule.size(), 2u);
  EXPECT_EQ(schedule[0] + schedule[1], clock_.Elapsed());
  EXPECT_EQ(2u, driver.retries());
  EXPECT_EQ(2u, retries_->Value() - retries_before);
}

TEST_P(StorageDriverRetryTest, PersistentFailureStopsAtTheBudget) {
  RetryPolicy policy;
  policy.max_attempts = 1000;  // the budget, not the attempts, ends it
  policy.initial_backoff = Millis(1);
  auto faulty = std::make_shared<storage::FaultyEngine>(
      std::make_shared<storage::MemoryEngine>(),
      storage::FaultyEngine::FaultSpec{});
  StorageDriver driver("local", faulty, 0, false, policy);
  ASSERT_OK(faulty->Write("f", testing::Bytes("abc")));
  const std::uint64_t retries_before = retries_->Value();

  EXPECT_STATUS_CODE(StatusCode::kUnavailable, Run(driver, *faulty, 1000));

  const std::vector<Duration> schedule = Schedule(policy, "local", "f");
  EXPECT_EQ(std::accumulate(schedule.begin(), schedule.end(), kZeroDuration),
            clock_.Elapsed());
  EXPECT_EQ(policy.budget, clock_.Elapsed());
  EXPECT_EQ(schedule.size(), driver.retries());
  EXPECT_EQ(schedule.size(), retries_->Value() - retries_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, StorageDriverRetryTest,
    ::testing::Values(DriverOp::kRead, DriverOp::kReadZeroCopy,
                      DriverOp::kWrite, DriverOp::kWriteAt),
    [](const ::testing::TestParamInfo<DriverOp>& op) -> std::string {
      switch (op.param) {
        case DriverOp::kRead: return "Read";
        case DriverOp::kReadZeroCopy: return "ReadZeroCopy";
        case DriverOp::kWrite: return "Write";
        case DriverOp::kWriteAt: return "WriteAt";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace monarch::core
