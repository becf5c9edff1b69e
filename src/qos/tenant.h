// TenantContext: who a byte belongs to (ISSUE 10, multi-tenant QoS).
//
// Every I/O the middleware performs is on behalf of some job — a trainer
// staging its working set, an inference service restoring a checkpoint,
// a data-prep pass scanning the whole dataset, the checkpoint drain lane
// pushing bytes to the PFS. The QoS layer needs that attribution on
// every byte, without threading a tenant parameter through every read
// signature in the repo. The mechanism is a thread-local ambient tenant:
//
//   qos::ScopedTenant scope(job_tenant);
//   monarch->Read(...);            // charged to job_tenant
//
// Components that hop threads (the staging pipeline's workers, the read
// ring, the checkpoint drain lane) capture the tenant at submission time
// and re-install it on the executing thread, so attribution survives the
// handoff. When no tenant is installed, components fall back to their
// own default (a StorageDriver's configured tenant, or the process-wide
// training default) — QoS-off code paths never pay for the feature.
#pragma once

#include <string>

namespace monarch::qos {

/// Per-job I/O class, ordered by urgency. Interactive and training are
/// DEMAND classes (band 0 of the fair queue): a human or a GPU is
/// waiting on them. Scan, drain and prefetch are BACKGROUND classes
/// (band 1): throughput work that must never delay demand — this
/// preserves the original two-lane invariant that demand staging always
/// runs before speculative work.
enum class IoClass {
  kInteractive = 0,  ///< inference/model-serving: latency-sensitive
  kTraining = 1,     ///< the classic training job: GPU-bound demand
  kScan = 2,         ///< full-dataset data-prep: throughput, low retention
  kDrain = 3,        ///< checkpoint write-back to the PFS
  kPrefetch = 4,     ///< look-ahead / repair staging (speculative)
};

inline constexpr int kNumIoClasses = 5;

/// Index helper for per-class arrays.
[[nodiscard]] constexpr int ClassIndex(IoClass io_class) noexcept {
  return static_cast<int>(io_class);
}

struct TenantContext {
  int tenant_id = 0;
  std::string name = "default";
  IoClass io_class = IoClass::kTraining;
  /// Bandwidth-share weight of this tenant relative to its peers
  /// (work-conserving: an idle tenant's share is lent to active ones).
  double weight = 4.0;
  /// Scan-resistance marking: this tenant's staged copies are fair game
  /// for eviction, and the tenant may only evict other low-retention
  /// copies — it can never push out a trainer's working set.
  bool low_retention = false;
};

/// The ambient tenant of the calling thread, or nullptr when none is
/// installed. The pointer stays valid for the lifetime of the enclosing
/// ScopedTenant.
[[nodiscard]] const TenantContext* CurrentTenant() noexcept;

/// RAII installer for the ambient tenant. Nests: the previous tenant is
/// restored on destruction, so a drain worker borrowing a reader thread
/// can't leak its identity.
class ScopedTenant {
 public:
  explicit ScopedTenant(const TenantContext& tenant) noexcept;
  ~ScopedTenant();

  ScopedTenant(const ScopedTenant&) = delete;
  ScopedTenant& operator=(const ScopedTenant&) = delete;

 private:
  const TenantContext* previous_;
};

}  // namespace monarch::qos
