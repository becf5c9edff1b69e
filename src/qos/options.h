// QosOptions: engine-free knobs of the multi-tenant QoS layer. Carried
// inside PlacementOptions so the staging pipeline, the eviction path and
// the config parser share one source of truth. The `[qos]` INI section
// sets `enabled`, the class weights and `scan_stage_cap_bytes`; the
// broker and admission fields are set in C++ (dlsim::ClusterConfig).
#pragma once

#include <cstdint>

#include "qos/tenant.h"

namespace monarch::qos {

struct QosOptions {
  /// Master switch. Off = the staging pipeline behaves exactly like the
  /// original two-lane demand/prefetch design (all demand classes share
  /// one weight) and no bandwidth shares are enforced.
  bool enabled = false;

  // Per-class fair-queue weights (interactive > training > scan >
  // drain; prefetch rides the background band at drain weight).
  double interactive_weight = 8.0;
  double training_weight = 4.0;
  double scan_weight = 2.0;
  double drain_weight = 1.0;

  /// Default bandwidth-share weight of a tenant that doesn't specify
  /// one (relative to its peers on the same broker).
  double tenant_share = 1.0;

  /// Aggregate byte rate the bandwidth broker apportions across tenants
  /// (bytes/s). 0 disables per-tenant bandwidth enforcement.
  double total_bandwidth_bps = 0.0;

  /// Admission control: a new job queues when its placement footprint
  /// would push committed bytes past `queue_threshold` x capacity, and
  /// is rejected outright when the footprint alone exceeds
  /// `reject_threshold` x capacity (it could never fit).
  double admission_queue_threshold = 0.85;
  double admission_reject_threshold = 1.5;

  /// Work-conserving borrowing: idle tenants' shares are lent to active
  /// ones (recomputed over a short activity window) instead of going to
  /// waste.
  bool work_conserving = true;

  /// Scan resistance: cap on the resident bytes low-retention tenants
  /// may hold on the cache tiers. Further scan stagings are refused
  /// (served straight from the PFS) instead of churning the cache.
  /// 0 = no cap beyond the eviction restriction.
  std::uint64_t scan_stage_cap_bytes = 0;

  [[nodiscard]] double ClassWeight(IoClass io_class) const noexcept {
    switch (io_class) {
      case IoClass::kInteractive:
        return interactive_weight;
      case IoClass::kTraining:
        return training_weight;
      case IoClass::kScan:
        return scan_weight;
      case IoClass::kDrain:
      case IoClass::kPrefetch:
        return drain_weight;
    }
    return training_weight;
  }
};

}  // namespace monarch::qos
