// Device performance model: turns configured bandwidth/latency figures
// (plus an optional contention process) into the process-clock cost of
// each I/O request, shared fairly across threads via token buckets.
//
// Profiles are expressed at "simulation scale": the benches run datasets
// scaled 1/1000 from the paper's, so a profile's bandwidth is likewise
// scaled to keep epoch times in seconds while preserving every ratio the
// figures depend on (SSD-vs-Lustre speed, dataset-vs-quota size).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "storage/contention_model.h"
#include "util/clock.h"
#include "util/rate_limiter.h"

namespace monarch::storage {

struct DeviceProfile {
  std::string name = "device";
  double read_bandwidth_bps = 1e9;    ///< sustained sequential read
  double write_bandwidth_bps = 1e9;
  Duration read_latency = Micros(80);    ///< fixed per-op setup cost
  Duration write_latency = Micros(100);
  Duration metadata_latency = Micros(50);///< open/stat cost

  /// SSD-class local device (scaled): fast, low latency, no contention.
  static DeviceProfile LocalSsd();
  /// Lustre-class shared PFS (scaled): slower per-client, much higher
  /// per-op and metadata latency (every op crosses the network to
  /// OSS/MDS), pair with ContentionModel::SharedPfs.
  static DeviceProfile LustrePfs();
  /// DRAM-class tier for the multi-level-hierarchy experiments.
  static DeviceProfile RamDisk();
};

/// One instance per physical device; every engine wrapper that shares the
/// device shares the model (and therefore its bandwidth).
class DeviceModel {
 public:
  explicit DeviceModel(DeviceProfile profile,
                       ContentionModel contention = ContentionModel());

  /// Block for the simulated duration of a read of `bytes`.
  void ChargeRead(std::uint64_t bytes);
  /// Block for the simulated duration of a write of `bytes`.
  void ChargeWrite(std::uint64_t bytes);
  /// Block for the simulated duration of a metadata op.
  void ChargeMetadata();

  [[nodiscard]] const DeviceProfile& profile() const noexcept {
    return profile_;
  }

  /// Expected uncontended service time for a read of `bytes` — used by
  /// benches to sanity-check calibration.
  [[nodiscard]] Duration PredictRead(std::uint64_t bytes) const;

 private:
  DeviceProfile profile_;
  ContentionModel contention_;
  RateLimiter read_bucket_;
  RateLimiter write_bucket_;
};

using DeviceModelPtr = std::shared_ptr<DeviceModel>;

}  // namespace monarch::storage
