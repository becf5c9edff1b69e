// The benchmark's workloads. Each builds its inputs from Options::seed,
// repeats fresh trials (set-up + timed epochs) until Options::seconds
// have elapsed, checks every output against its oracle, and fills the
// report: end-to-end metrics when untraced, per-layer metrics when
// traced. Every workload reports every metric of its mode; a per-layer
// metric whose layer the workload does not exercise reads 0.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/monarch.h"
#include "storage/io_stats.h"
#include "tracer.h"

namespace perfbench {

void RunTrainFit(const Options& options, Report& report);
void RunClusterPacked(const Options& options, Report& report);
void RunReadHot(const Options& options, Report& report);

/// Trials run while the elapsed time plus the mean trial duration fits in
/// the budget; at least one always runs.
class TrialClock {
 public:
  explicit TrialClock(double seconds) : budget_s_(seconds) {}
  [[nodiscard]] bool Another() {
    const double elapsed = SecondsSince(start_);
    if (trials_ == 0 ||
        elapsed + elapsed / static_cast<double>(trials_) <= budget_s_) {
      ++trials_;
      return true;
    }
    return false;
  }

 private:
  double budget_s_;
  std::int64_t start_ = NowNs();
  int trials_ = 0;
};

/// Minimum number of set-ups per run; workloads whose trials are long add
/// stand-alone set-ups to reach it, so `setup_s` is always a median.
constexpr int kMinSetups = 5;

/// End-to-end metrics shared by every workload, one sample per trial
/// (epochs and set-ups) or per op (latency).
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> epoch1_s;
  std::vector<double> warm_epoch_s;
  std::vector<double> read_stall_s;
  std::vector<double> pfs_read_mib;
  std::vector<double> reads_per_s;
  Reservoir latency_us;  ///< client-visible per-read latency

  /// Resets the peak resident set and records the current one as the
  /// baseline of `peak_rss_mib` (the run's peak above it), so the
  /// benchmark's own inputs do not count. Call once the inputs (generated
  /// dataset store, oracle tables) exist, before the first trial.
  void MarkRssBaseline(Report& report);
  /// Into report.metrics, or report.traced_e2e when tracing.
  void Fill(Report& report) const;

 private:
  double rss_base_mib_ = 0;
};

/// Times stand-alone set-ups (built and torn down) until `setup_s` has
/// kMinSetups samples; a failed set-up is reported and stops the loop.
template <typename SetUpFn>
void TopUpSetups(EndToEnd& e2e, Report& report, SetUpFn set_up) {
  while (e2e.setup_s.size() < static_cast<std::size_t>(kMinSetups)) {
    const std::int64_t start = NowNs();
    auto built = set_up();
    if (!built.ok()) {
      report.Fail(1, "setup: " + built.status().ToString());
      return;
    }
    e2e.setup_s.push_back(SecondsSince(start));
  }
}

/// Per-layer metrics of the traced run: one value per trial (median
/// reported) plus pooled span durations for the latency percentiles.
class LayerMetrics {
 public:
  void Add(const std::string& name, double value) {
    trials_[name].push_back(value);
  }
  /// One trial's span totals (Tracer::Collect).
  void AddSpans(const TraceTotals& totals);
  /// One trial's Monarch::Stats(), summed over the trial's nodes.
  void AddMonarchStats(const std::vector<monarch::core::MonarchStats>& nodes);
  /// One trial's IoStats diff of an engine family ("storage.pfs", ...).
  void AddIo(const std::string& prefix,
             const monarch::storage::IoStatsSnapshot& io);
  /// Write every catalogued per-layer metric (0 where never measured).
  void Fill(Report& report) const;

 private:
  std::map<std::string, std::vector<double>> trials_;
  std::map<Layer, Reservoir> durations_ns_;
  std::array<LayerTotals, kLayers> span_totals_{};  ///< over all trials
};

/// Name and unit of every per-layer metric, in catalogue order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& PerLayerCatalogue();

}  // namespace perfbench
