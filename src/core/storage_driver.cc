#include "core/storage_driver.h"

#include <functional>

namespace monarch::core {

StorageDriver::StorageDriver(std::string name,
                             storage::StorageEnginePtr engine,
                             std::uint64_t quota_bytes, bool read_only,
                             RetryPolicy retry, TierHealthOptions health)
    : name_(std::move(name)),
      engine_(std::move(engine)),
      quota_(quota_bytes),
      read_only_(read_only),
      retry_(retry),
      health_(name_, health) {
  retries_ = obs::MetricsRegistry::Global().GetCounter(
      "storage.retries", "ops",
      "engine operations retried after a transient (UNAVAILABLE) failure");
}

bool StorageDriver::Reserve(std::uint64_t bytes) noexcept {
  if (read_only_) return false;
  if (quota_ == 0) {  // unlimited
    occupancy_.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }
  std::uint64_t current = occupancy_.load(std::memory_order_relaxed);
  for (;;) {
    if (current + bytes > quota_) return false;
    if (occupancy_.compare_exchange_weak(current, current + bytes,
                                         std::memory_order_acq_rel)) {
      return true;
    }
  }
}

void StorageDriver::Release(std::uint64_t bytes) noexcept {
  occupancy_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::uint64_t StorageDriver::free_bytes() const noexcept {
  if (quota_ == 0) return UINT64_MAX;
  const std::uint64_t used = occupancy_.load(std::memory_order_relaxed);
  return used >= quota_ ? 0 : quota_ - used;
}

template <typename Op>
auto StorageDriver::Retried(std::string_view path, Op op) {
  // Salt the jitter stream per (tier, file) so concurrent retries across
  // files don't sleep in lockstep, while staying deterministic per run.
  // Hashes are combined instead of concatenated — no allocation — and
  // only computed once an attempt has failed.
  const auto salt = [&] {
    return std::hash<std::string>{}(name_) ^
           std::hash<std::string_view>{}(path);
  };
  auto tracked = [&] {
    auto outcome = op();
    // kNotFound etc. are misses, not tier failures — don't poison the
    // health window with them.
    if (outcome.ok()) health_.RecordSuccess();
    if (IsRetryableError(outcome)) health_.RecordFailure();
    return outcome;
  };
  return RetryWithBackoff(retry_, salt, tracked, [this](const auto&) {
    retries_local_.fetch_add(1, std::memory_order_relaxed);
    if (retries_ != nullptr) retries_->Increment();
  });
}

Result<std::size_t> StorageDriver::Read(std::string_view path,
                                        std::uint64_t offset,
                                        std::span<std::byte> dst) {
  // Charge the tenant before the engine op: the token-bucket wait IS
  // the bandwidth enforcement (charged once, not per retry attempt).
  ChargeQos(dst.size());
  return Retried(path, [&] { return engine_->Read(path, offset, dst); });
}

Result<storage::ReadView> StorageDriver::ReadZeroCopy(std::string_view path,
                                                      std::uint64_t offset,
                                                      std::uint64_t max_bytes,
                                                      bool allow_zero_copy) {
  ChargeQos(max_bytes);
  return Retried(path, [&] {
    // The qualified call is the non-virtual base implementation: always a
    // private copy routed through the engine's own Read.
    return allow_zero_copy ? engine_->ReadZeroCopy(path, offset, max_bytes)
                           : engine_->storage::StorageEngine::ReadZeroCopy(
                                 path, offset, max_bytes);
  });
}

Status StorageDriver::Write(const std::string& path,
                            std::span<const std::byte> data) {
  if (read_only_) {
    return FailedPreconditionError("write to read-only tier '" + name_ + "'");
  }
  ChargeQos(data.size());
  return Retried(path, [&] { return engine_->Write(path, data); });
}

Status StorageDriver::WriteAt(const std::string& path, std::uint64_t offset,
                              std::span<const std::byte> data) {
  if (read_only_) {
    return FailedPreconditionError("write to read-only tier '" + name_ + "'");
  }
  ChargeQos(data.size());
  // Retrying a chunk is safe: WriteAt is an idempotent overwrite of the
  // same byte range.
  return Retried(path,
                 [&] { return engine_->WriteAt(path, offset, data); });
}

Status StorageDriver::Delete(const std::string& path) {
  if (read_only_) {
    return FailedPreconditionError("delete on read-only tier '" + name_ +
                                   "'");
  }
  return engine_->Delete(path);
}

}  // namespace monarch::core
