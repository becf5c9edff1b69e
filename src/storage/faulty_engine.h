// FaultyEngine: failure-injection decorator for tests. Covers the whole
// StorageEngine surface:
//   - probabilistic (seeded) or explicit one-shot UNAVAILABLE failures on
//     reads, writes, and metadata ops (FileSize/Exists/ListFiles),
//   - silent corruption: a read succeeds but a byte in the returned data
//     is flipped — the case only checksums can catch,
//   - outage windows: every injectable op fails for a fixed duration (or
//     until Heal()), the scenario that trips a tier's circuit breaker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "storage/storage_engine.h"
#include "util/clock.h"
#include "util/rng.h"

namespace monarch::storage {

class FaultyEngine final : public StorageEngine {
 public:
  struct FaultSpec {
    double read_failure_rate = 0.0;
    double write_failure_rate = 0.0;
    /// Applies to FileSize, Exists, and ListFiles.
    double metadata_failure_rate = 0.0;
    /// Probability that a successful read is silently corrupted (one byte
    /// flipped). Counted separately from failures: the caller sees OK.
    double read_corruption_rate = 0.0;
    std::uint64_t seed = 42;
  };

  FaultyEngine(StorageEnginePtr inner, FaultSpec spec)
      : inner_(std::move(inner)), spec_(spec), rng_(spec.seed) {}

  /// Make the next `n` reads fail regardless of rates.
  void FailNextReads(int n) { forced_read_failures_.store(n); }
  /// Make the next `n` writes fail regardless of rates.
  void FailNextWrites(int n) { forced_write_failures_.store(n); }
  /// Make the next `n` metadata ops (FileSize/Exists/ListFiles) fail.
  void FailNextMetadataOps(int n) { forced_metadata_failures_.store(n); }
  /// Silently corrupt the next `n` successful reads.
  void CorruptNextReads(int n) { forced_corruptions_.store(n); }

  /// Hard-down window: every injectable op fails until `duration` elapses.
  void FailFor(monarch::Duration duration) {
    outage_until_ns_.store(monarch::NowNs() + duration.count());
  }
  /// Hard-down until Heal() is called.
  void FailUntilHealed() { outage_until_ns_.store(INT64_MAX); }
  /// End any outage window immediately.
  void Heal() { outage_until_ns_.store(0); }
  [[nodiscard]] bool in_outage() const noexcept {
    return monarch::NowNs() < outage_until_ns_.load();
  }

  /// UNAVAILABLE errors injected so far (outage + forced + probabilistic).
  [[nodiscard]] std::uint64_t injected_failures() const noexcept {
    return injected_.load();
  }
  /// Reads whose payload was silently corrupted.
  [[nodiscard]] std::uint64_t injected_corruptions() const noexcept {
    return corrupted_.load();
  }

  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst) override {
    if (ShouldFail(forced_read_failures_, spec_.read_failure_rate)) {
      return UnavailableError("injected read fault on '" + std::string(path) +
                              "'");
    }
    auto read = inner_->Read(path, offset, dst);
    if (read.ok() && read.value() > 0 &&
        ShouldTrigger(forced_corruptions_, spec_.read_corruption_rate)) {
      // Flip one bit somewhere in the returned payload; deterministic for
      // a given seed, invisible without a checksum.
      const std::size_t victim = NextIndex(read.value());
      dst[victim] ^= std::byte{0x20};
      corrupted_.fetch_add(1);
    }
    return read;
  }

  Result<ReadView> ReadZeroCopy(std::string_view path, std::uint64_t offset,
                                std::uint64_t max_bytes) override {
    // Corruption must never scribble on a lent page (other readers may
    // hold views of the same bytes), so when corruption is configured the
    // copying fallback routes through our own Read and flips a byte in
    // the private copy instead.
    if (spec_.read_corruption_rate > 0.0 || forced_corruptions_.load() > 0) {
      return StorageEngine::ReadZeroCopy(path, offset, max_bytes);
    }
    if (ShouldFail(forced_read_failures_, spec_.read_failure_rate)) {
      return UnavailableError("injected read fault on '" + std::string(path) +
                              "'");
    }
    return inner_->ReadZeroCopy(path, offset, max_bytes);
  }

  Status Write(const std::string& path,
               std::span<const std::byte> data) override {
    if (ShouldFail(forced_write_failures_, spec_.write_failure_rate)) {
      return UnavailableError("injected write fault on '" + path + "'");
    }
    return inner_->Write(path, data);
  }

  Status WriteAt(const std::string& path, std::uint64_t offset,
                 std::span<const std::byte> data) override {
    if (ShouldFail(forced_write_failures_, spec_.write_failure_rate)) {
      return UnavailableError("injected write fault on '" + path + "'");
    }
    return inner_->WriteAt(path, offset, data);
  }

  Status Delete(const std::string& path) override {
    return inner_->Delete(path);
  }
  Result<std::uint64_t> FileSize(const std::string& path) override {
    if (ShouldFail(forced_metadata_failures_, spec_.metadata_failure_rate)) {
      return UnavailableError("injected stat fault on '" + path + "'");
    }
    return inner_->FileSize(path);
  }
  Result<bool> Exists(const std::string& path) override {
    if (ShouldFail(forced_metadata_failures_, spec_.metadata_failure_rate)) {
      return UnavailableError("injected stat fault on '" + path + "'");
    }
    return inner_->Exists(path);
  }
  Result<std::vector<FileStat>> ListFiles(const std::string& dir) override {
    if (ShouldFail(forced_metadata_failures_, spec_.metadata_failure_rate)) {
      return UnavailableError("injected listing fault on '" + dir + "'");
    }
    return inner_->ListFiles(dir);
  }

  IoStats& Stats() override { return inner_->Stats(); }
  [[nodiscard]] std::string Name() const override {
    return inner_->Name() + "+faults";
  }

 private:
  /// Forced counter / probability draw, without counting an injection.
  bool ShouldTrigger(std::atomic<int>& forced, double rate) {
    int n = forced.load();
    while (n > 0) {
      if (forced.compare_exchange_weak(n, n - 1)) return true;
    }
    if (rate > 0.0) {
      std::lock_guard<std::mutex> lock(rng_mu_);
      return rng_.NextDouble() < rate;
    }
    return false;
  }

  bool ShouldFail(std::atomic<int>& forced, double rate) {
    if (in_outage() || ShouldTrigger(forced, rate)) {
      injected_.fetch_add(1);
      return true;
    }
    return false;
  }

  std::size_t NextIndex(std::size_t bound) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    return static_cast<std::size_t>(rng_.NextBounded(bound));
  }

  StorageEnginePtr inner_;
  FaultSpec spec_;
  std::mutex rng_mu_;
  Xoshiro256 rng_;
  std::atomic<int> forced_read_failures_{0};
  std::atomic<int> forced_write_failures_{0};
  std::atomic<int> forced_metadata_failures_{0};
  std::atomic<int> forced_corruptions_{0};
  /// NowNs() deadline; 0 = no outage, INT64_MAX = until Heal().
  std::atomic<std::int64_t> outage_until_ns_{0};
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> corrupted_{0};
};

}  // namespace monarch::storage
