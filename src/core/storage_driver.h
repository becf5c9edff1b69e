// StorageDriver: one level of the storage hierarchy (§III-A). Wraps a
// storage engine with the tier's governing properties — mount path
// semantics come from the engine; the driver adds the storage quota,
// race-free occupancy accounting, and the tier's fault-tolerance
// envelope: transient (kUnavailable) engine errors are retried with
// bounded backoff (core/resilience.h) and every outcome feeds the tier's
// circuit breaker (core/tier_health.h) so the read path can route around
// a persistently failing tier.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/resilience.h"
#include "core/tier_health.h"
#include "obs/metrics_registry.h"
#include "qos/bandwidth_broker.h"
#include "qos/tenant.h"
#include "storage/storage_engine.h"
#include "util/status.h"

namespace monarch::core {

class StorageDriver {
 public:
  /// `quota_bytes == 0` means unlimited (used for the PFS level, which is
  /// a read-only data source and never receives placements).
  /// `retry`/`health` default to the stock policies of
  /// core/resilience.h; pass MonarchConfig::resilience-derived values to
  /// tune them per deployment.
  StorageDriver(std::string name, storage::StorageEnginePtr engine,
                std::uint64_t quota_bytes, bool read_only,
                RetryPolicy retry = {}, TierHealthOptions health = {});

  /// Atomically reserve `bytes` of quota. Fails (false) when the tier
  /// would overflow — the caller then tries the next level down.
  [[nodiscard]] bool Reserve(std::uint64_t bytes) noexcept;

  /// Return reserved quota (placement failed or file evicted).
  void Release(std::uint64_t bytes) noexcept;

  /// Read through the engine, retrying transient failures per the retry
  /// policy. Every attempt's outcome feeds the tier health tracker;
  /// kNotFound (a legitimate miss or an eviction race) does not.
  Result<std::size_t> Read(std::string_view path, std::uint64_t offset,
                           std::span<std::byte> dst);

  /// Zero-copy read with the same retry/health envelope as Read: the
  /// engine lends (or copies, if it can't lend) up to `max_bytes` from
  /// `offset` as an immutable ReadView. `allow_zero_copy == false`
  /// forces the base copying fallback even on lending engines — the A/B
  /// lever the read-hotpath bench uses to isolate the memcpy cost.
  Result<storage::ReadView> ReadZeroCopy(std::string_view path,
                                         std::uint64_t offset,
                                         std::uint64_t max_bytes,
                                         bool allow_zero_copy = true);

  /// Write a staged copy, with the same retry/health envelope as Read.
  /// The caller must hold a successful Reserve for data.size() — the
  /// driver checks read_only but trusts the accounting.
  Status Write(const std::string& path, std::span<const std::byte> data);

  /// Chunked-staging variant of Write: land `data` at byte `offset` of
  /// `path` (same retry/health envelope). The caller must hold a Reserve
  /// covering the file's full size before the first chunk.
  Status WriteAt(const std::string& path, std::uint64_t offset,
                 std::span<const std::byte> data);

  Status Delete(const std::string& path);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool read_only() const noexcept { return read_only_; }
  [[nodiscard]] std::uint64_t quota_bytes() const noexcept { return quota_; }
  [[nodiscard]] std::uint64_t occupancy_bytes() const noexcept {
    return occupancy_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t free_bytes() const noexcept;

  [[nodiscard]] TierHealth& health() noexcept { return health_; }
  [[nodiscard]] const TierHealth& health() const noexcept { return health_; }

  /// Ops retried by this driver (transient errors absorbed before the
  /// caller saw them); also accumulated into the process-wide
  /// `storage.retries` counter.
  [[nodiscard]] std::uint64_t retries() const noexcept {
    return retries_local_.load(std::memory_order_relaxed);
  }

  /// Install the per-tenant bandwidth broker (ISSUE 10). Every
  /// Read/Write on this driver then charges its bytes to the calling
  /// thread's ambient tenant (qos::CurrentTenant()), falling back to
  /// `default_tenant`, BEFORE the engine op — the token-bucket wait is
  /// the enforcement. Call before the driver is shared across threads.
  void SetQosBroker(qos::BandwidthBrokerPtr broker,
                    qos::TenantContext default_tenant) {
    qos_broker_ = std::move(broker);
    default_tenant_ = std::move(default_tenant);
  }

  [[nodiscard]] storage::StorageEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] storage::IoStatsSnapshot StatsSnapshot() const {
    return engine_->Stats().Snapshot();
  }

 private:
  /// Runs one engine op on `path` under the retry policy; feeds the
  /// tier's health tracker and counts every retry.
  template <typename Op>
  auto Retried(std::string_view path, Op op);

  /// Charge `bytes` to the ambient tenant through the broker (no-op
  /// while no broker is installed or enforcement is off).
  void ChargeQos(std::uint64_t bytes) {
    if (qos_broker_ != nullptr && qos_broker_->enabled() && bytes > 0) {
      qos_broker_->AcquireCurrent(default_tenant_, bytes);
    }
  }

  std::string name_;
  storage::StorageEnginePtr engine_;
  std::uint64_t quota_;
  bool read_only_;
  std::atomic<std::uint64_t> occupancy_{0};

  RetryPolicy retry_;
  TierHealth health_;
  std::atomic<std::uint64_t> retries_local_{0};
  obs::Counter* retries_ = nullptr;  ///< `storage.retries`

  qos::BandwidthBrokerPtr qos_broker_;  ///< null = no enforcement
  qos::TenantContext default_tenant_;
};

using StorageDriverPtr = std::unique_ptr<StorageDriver>;

}  // namespace monarch::core
