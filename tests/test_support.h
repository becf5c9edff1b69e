// Shared test scaffolding: unique temp directories, status matchers, a
// manual process clock, and small factory helpers used across the suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/status.h"

namespace monarch::testing {

/// Creates (and on destruction removes) a unique directory under the
/// system temp root. One per fixture keeps tests hermetic and parallel-
/// safe under `ctest -j`.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<std::uint64_t> counter{0};
    const auto id = counter.fetch_add(1);
    path_ = std::filesystem::temp_directory_path() /
            ("monarch_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(id));
    std::filesystem::create_directories(path_);
  }

  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] std::filesystem::path Sub(const std::string& name) const {
    return path_ / name;
  }

 private:
  std::filesystem::path path_;
};

/// A process clock whose time moves only on Advance(), or when a sleeper
/// jumps it to its wakeup: sleeps return at once, so breaker windows,
/// token buckets and backoff become exact. The scoped override: it is the
/// process clock for its lifetime, then the previous clock is restored.
/// Create it before the objects under test.
class ManualClock final : public Clock {
 public:
  ManualClock() : previous_(ExchangeProcessClock(this)) {}
  ~ManualClock() override { ExchangeProcessClock(previous_); }
  ManualClock(const ManualClock&) = delete;
  ManualClock& operator=(const ManualClock&) = delete;

  /// Time starts one hour past the epoch, so NowNs() is never the 0 that
  /// deadline atomics use as "no deadline".
  static constexpr TimePoint kStart{std::chrono::hours(1)};

  [[nodiscard]] TimePoint Now() const override {
    return TimePoint(Duration(now_ns_.load(std::memory_order_acquire)));
  }
  /// Jumps to the sleeper's wakeup, Now() + d (never backwards).
  void SleepFor(Duration d) override {
    std::int64_t now = now_ns_.load(std::memory_order_acquire);
    const std::int64_t target = now + std::max(d.count(), std::int64_t{0});
    while (now < target && !now_ns_.compare_exchange_weak(now, target)) {
    }
  }
  void Advance(Duration d) { now_ns_.fetch_add(d.count()); }
  /// Time advanced since construction.
  [[nodiscard]] Duration Elapsed() const { return Now() - kStart; }

 private:
  std::atomic<std::int64_t> now_ns_{kStart.time_since_epoch().count()};
  Clock* previous_;
};

/// Bytes from a string literal (test payloads).
inline std::vector<std::byte> Bytes(const std::string& text) {
  std::vector<std::byte> out(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    out[i] = static_cast<std::byte>(text[i]);
  }
  return out;
}

inline std::string Text(const std::vector<std::byte>& bytes) {
  std::string out(bytes.size(), '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[i] = static_cast<char>(bytes[i]);
  }
  return out;
}

/// Uniform access to the Status of either a Status or a Result<T>.
inline Status GetStatus(const Status& status) { return status; }
template <typename T>
Status GetStatus(const Result<T>& result) {
  return result.status();
}

}  // namespace monarch::testing

// Assertion helpers for Status / Result.
#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const auto _assert_ok_st = ::monarch::testing::GetStatus((expr)); \
    ASSERT_TRUE(_assert_ok_st.ok()) << _assert_ok_st.ToString();      \
  } while (0)

#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const auto _expect_ok_st = ::monarch::testing::GetStatus((expr)); \
    EXPECT_TRUE(_expect_ok_st.ok()) << _expect_ok_st.ToString();      \
  } while (0)

#define EXPECT_STATUS_CODE(expected_code, expr)                     \
  do {                                                              \
    const auto _st_code = ::monarch::testing::GetStatus((expr));    \
    EXPECT_FALSE(_st_code.ok());                                    \
    EXPECT_EQ((expected_code), _st_code.code()) << _st_code.ToString(); \
  } while (0)
