#include "cluster/restage_pump.h"

#include <utility>
#include <vector>

#include "util/rate_limiter.h"

namespace monarch::cluster {

RestagePump::RestagePump(FileDirectory& directory, int node, StageFn stage)
    : RestagePump(directory, node, std::move(stage), Options{}) {}

RestagePump::RestagePump(FileDirectory& directory, int node, StageFn stage,
                         Options options)
    : directory_(directory),
      node_(node),
      stage_(std::move(stage)),
      options_(options) {
  thread_ = std::thread([this] { Run(); });
}

RestagePump::~RestagePump() { Stop(); }

void RestagePump::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

RestagePump::PumpStats RestagePump::stats() const {
  PumpStats out;
  out.staged_files = staged_files_.load(std::memory_order_relaxed);
  out.staged_bytes = staged_bytes_.load(std::memory_order_relaxed);
  out.skipped = skipped_.load(std::memory_order_relaxed);
  return out;
}

void RestagePump::Run() {
  // One bucket per pump: the cap bounds THIS node's repair pull, the
  // way drain_bandwidth bounds one node's checkpoint drain.
  RateLimiter bucket(options_.bandwidth_bps > 0 ? options_.bandwidth_bps
                                                : 1.0);
  while (!stop_.load(std::memory_order_acquire)) {
    const std::vector<std::string> batch =
        directory_.IsLive(node_)
            ? directory_.TakeRestage(
                  node_, std::max<std::size_t>(options_.batch_files, 1))
            : std::vector<std::string>{};
    if (batch.empty()) {
      ProcessClock().SleepFor(options_.poll);
      continue;
    }
    for (const std::string& name : batch) {
      if (stop_.load(std::memory_order_acquire)) return;
      const Result<std::uint64_t> scheduled = stage_(name);
      if (!scheduled.ok() || scheduled.value() == 0) {
        skipped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t bytes = scheduled.value();
      staged_files_.fetch_add(1, std::memory_order_relaxed);
      staged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      directory_.CountRestageCompleted(bytes);
      if (options_.bandwidth_bps > 0) {
        // Meter the repair pull: sleep this copy's bandwidth share
        // before scheduling the next one.
        bucket.Acquire(static_cast<double>(bytes));
      }
    }
  }
}

}  // namespace monarch::cluster
