// BandwidthBroker: per-tenant token-bucket bandwidth shares with
// work-conserving borrowing (ISSUE 10).
//
// One broker guards one contended resource — the shared PFS device, a
// cache tier, the interconnect. Each registered tenant gets its own
// token bucket (util/rate_limiter.h) whose rate is its weighted share
// of the broker's total:
//
//   rate_i = total * w_i / sum(w_j for j active within ~100ms)
//
// Work-conserving: the denominator covers only tenants that charged the
// broker recently, so an idle tenant's share flows to the active ones —
// a lone scan job saturates the device, and the instant the interactive
// tenant wakes up the shares snap back to the weighted split. With
// work_conserving off, the denominator is all registered tenants
// (strict reservation).
//
// Charging is attributable via qos::CurrentTenant() at the call sites
// (StorageDriver, NetworkModel, the checkpoint drain lane); the broker
// itself just takes a tenant id. Unknown tenants are auto-registered
// with the default weight so attribution gaps throttle fairly instead
// of bypassing enforcement.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "qos/tenant.h"
#include "util/clock.h"
#include "util/rate_limiter.h"

namespace monarch::qos {

class BandwidthBroker {
 public:
  struct Options {
    /// Aggregate rate apportioned across tenants (bytes/s for storage
    /// brokers). 0 = enforcement disabled (all charges are free).
    double total_rate_bps = 0.0;
    bool work_conserving = true;
    /// A tenant counts as active while it charged within this window.
    Duration active_window = Millis(100);
    /// Default weight of tenants the broker discovers via charges.
    double default_weight = 1.0;
  };

  explicit BandwidthBroker(Options options);

  BandwidthBroker(const BandwidthBroker&) = delete;
  BandwidthBroker& operator=(const BandwidthBroker&) = delete;

  /// Declare a tenant and its share weight (idempotent by id; the
  /// latest context wins).
  void RegisterTenant(const TenantContext& tenant);

  /// Account `bytes` to `tenant_id` and return how long the caller must
  /// wait for its share (may run the bucket into debt; zero when the
  /// broker is disabled).
  [[nodiscard]] Duration Reserve(int tenant_id, std::uint64_t bytes);

  /// Reserve + sleep, recording throttle metrics and — when tracing is
  /// enabled and the wait was nonzero — a `qos.throttle` instant.
  void Acquire(int tenant_id, std::uint64_t bytes);

  /// Acquire attributed to the calling thread's ambient tenant, falling
  /// back to `fallback` when none is installed.
  void AcquireCurrent(const TenantContext& fallback, std::uint64_t bytes);

  [[nodiscard]] bool enabled() const noexcept {
    return options_.total_rate_bps > 0.0;
  }

  /// Per-tenant accounting snapshot (benches, tests).
  struct TenantUsage {
    int tenant_id = 0;
    std::string name;
    IoClass io_class = IoClass::kTraining;
    double weight = 1.0;
    double share_bps = 0.0;          ///< current effective rate
    std::uint64_t consumed_bytes = 0;
    std::uint64_t throttle_waits = 0;
    std::uint64_t throttled_us = 0;
  };
  [[nodiscard]] std::vector<TenantUsage> Usage() const;

 private:
  struct Tenant {
    TenantContext ctx;
    std::unique_ptr<RateLimiter> limiter;  ///< null while disabled
    TimePoint last_active{};
    double share_bps = 0.0;
    std::uint64_t consumed_bytes = 0;
    std::uint64_t throttle_waits = 0;
    std::uint64_t throttled_us = 0;
  };

  /// Recompute every tenant's effective rate from the active set.
  /// Caller holds mu_.
  void RecomputeSharesLocked(TimePoint now);
  Tenant& GetTenantLocked(int tenant_id);

  Options options_;
  mutable std::mutex mu_;
  std::map<int, Tenant> tenants_;

  // Process-wide `qos.*` totals (docs/OBSERVABILITY.md §1).
  obs::Counter* consumed_ = nullptr;        ///< qos.consumed_bytes
  obs::Counter* throttle_waits_ = nullptr;  ///< qos.throttle_waits
  obs::Counter* throttled_us_ = nullptr;    ///< qos.throttled_us

  // Labeled per-tenant samples (`qos.tenant.*`, label = tenant name).
  // Last member: deregisters before tenants_ dies.
  obs::SourceRegistration source_;
};

using BandwidthBrokerPtr = std::shared_ptr<BandwidthBroker>;

}  // namespace monarch::qos
