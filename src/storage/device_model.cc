#include "storage/device_model.h"

#include <algorithm>

namespace monarch::storage {

DeviceProfile DeviceProfile::LocalSsd() {
  DeviceProfile p;
  p.name = "local-ssd";
  // Frontera node SSD ~500 MB/s; at 1/1000 byte scale an epoch moves
  // ~100 MiB, so 400 MB/s keeps local-served epochs well under a second
  // of pure I/O, matching the paper's compute-bound-when-local regime.
  p.read_bandwidth_bps = 400e6;
  p.write_bandwidth_bps = 600e6;
  p.read_latency = Micros(60);
  p.write_latency = Micros(80);
  p.metadata_latency = Micros(15);
  return p;
}

DeviceProfile DeviceProfile::LustrePfs() {
  DeviceProfile p;
  p.name = "lustre-pfs";
  // Per-client share of a saturated shared PFS. Two calibration targets
  // (EXPERIMENTS.md): the paper's LeNet runs show lustre ~1.9x slower
  // than local overall, and MONARCH's epoch 1 *undercuts* vanilla-lustre
  // because its single streaming whole-file fetch replaces many
  // high-latency chunked preads — so the per-op latency term must carry
  // a large share of the PFS cost, as it does on real Lustre clients.
  p.read_bandwidth_bps = 200e6;
  p.write_bandwidth_bps = 120e6;
  p.read_latency = Micros(1200);    // network + OSS round trip
  p.write_latency = Micros(1600);
  p.metadata_latency = Micros(400); // MDS round trip
  return p;
}

DeviceProfile DeviceProfile::RamDisk() {
  DeviceProfile p;
  p.name = "ram";
  p.read_bandwidth_bps = 4e9;
  p.write_bandwidth_bps = 4e9;
  p.read_latency = Micros(2);
  p.write_latency = Micros(2);
  p.metadata_latency = Micros(1);
  return p;
}

DeviceModel::DeviceModel(DeviceProfile profile, ContentionModel contention)
    : profile_(std::move(profile)),
      contention_(std::move(contention)),
      read_bucket_(profile_.read_bandwidth_bps),
      write_bucket_(profile_.write_bandwidth_bps) {}

namespace {

/// Sleeps the contention-inflated latency plus `bytes`' transfer wait.
void Charge(ContentionModel& contention, Duration base_latency,
            RateLimiter& bucket, double bandwidth_bps, std::uint64_t bytes) {
  const auto cond = contention.Current(ProcessClock().Now());
  // Latency component, inflated by contention.
  const Duration latency = std::chrono::duration_cast<Duration>(
      base_latency * cond.latency_multiplier);
  // Bandwidth component: reserve tokens at base rate, then stretch the
  // wait by the unavailable fraction (other jobs consuming the device).
  Duration transfer = bucket.Reserve(static_cast<double>(bytes));
  if (cond.bandwidth_factor < 1.0) {
    const Duration nominal =
        FromSeconds(static_cast<double>(bytes) / bandwidth_bps);
    transfer = FromSeconds(ToSeconds(std::max(transfer, nominal)) /
                           cond.bandwidth_factor);
  }
  ProcessClock().SleepFor(latency + transfer);
}

}  // namespace

void DeviceModel::ChargeRead(std::uint64_t bytes) {
  Charge(contention_, profile_.read_latency, read_bucket_,
         profile_.read_bandwidth_bps, bytes);
}

void DeviceModel::ChargeWrite(std::uint64_t bytes) {
  Charge(contention_, profile_.write_latency, write_bucket_,
         profile_.write_bandwidth_bps, bytes);
}

void DeviceModel::ChargeMetadata() {
  // Zero bytes reserve nothing: only the inflated latency is slept.
  Charge(contention_, profile_.metadata_latency, read_bucket_,
         profile_.read_bandwidth_bps, 0);
}

Duration DeviceModel::PredictRead(std::uint64_t bytes) const {
  return profile_.read_latency +
         FromSeconds(static_cast<double>(bytes) / profile_.read_bandwidth_bps);
}

}  // namespace monarch::storage
