// Shared plumbing of the benchmark driver: command-line options, sample
// summaries, the per-run report and its JSON form.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrink every workload to a few-second smoke size (the benchmark's
  /// own tests); the metric set is unchanged.
  bool tiny = false;
  /// Chrome trace JSON written at exit of a traced run ("" = none).
  std::string trace_out;
};

/// Median and the first/third quartiles as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};
Summary Summarize(std::vector<double> values);

/// Nearest-rank percentile (0 < p <= 100) of already sorted samples.
double SortedPercentile(const std::vector<double>& sorted, double p);

/// Bounded latency sample store: keeps every sample up to `cap`, then
/// switches to uniform reservoir sampling so memory stays fixed however
/// long the run is. Percentiles stay unbiased; `seen()` is the true count.
class Reservoir {
 public:
  explicit Reservoir(std::size_t cap = 1u << 16, std::uint64_t seed = 1)
      : cap_(cap), rng_(seed) {}
  void Add(double value);
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }
  void Clear() noexcept {
    samples_.clear();
    seen_ = 0;
  }

 private:
  std::size_t cap_;
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  std::mt19937_64 rng_;
};

/// Thread-safe Reservoir for samples recorded from threads the benchmark
/// does not own (the data loader's reader threads).
class SharedReservoir {
 public:
  void Add(double value) {
    const std::lock_guard<std::mutex> lock(mu_);
    samples_.Add(value);
  }
  Reservoir Take() {
    const std::lock_guard<std::mutex> lock(mu_);
    Reservoir out = samples_;
    samples_.Clear();
    return out;
  }

 private:
  std::mutex mu_;
  Reservoir samples_;
};

struct Metric {
  std::string unit;
  Summary summary;  ///< value = summary.median
};

/// One layer's span totals over a traced run: span count, busy time and
/// self time (busy minus the time its child spans cover). For a client-op
/// layer (`root`), self time is the op's unattributed remainder.
struct SpanTotal {
  std::uint64_t count = 0;
  double busy_s = 0;
  double self_s = 0;
  bool root = false;
};

/// Everything one run reports: metrics (by name), op accounting, the
/// oracle verdict, and informational fields that are not gated.
struct Report {
  std::map<std::string, Metric> metrics;
  /// The end-to-end set as measured in a traced run; compared with the
  /// untraced runs' medians it gives the tracing overhead.
  std::map<std::string, Metric> traced_e2e;
  /// Per-layer span totals of a traced run (by layer name).
  std::map<std::string, SpanTotal> span_layers;
  std::map<std::string, double> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< oracle failures, first few kept

  void Set(const std::string& name, const std::string& unit,
           const std::vector<double>& samples) {
    metrics[name] = Metric{unit, Summarize(samples)};
  }
  /// Record an oracle failure; `ops` failed ops are added to `failed`.
  void Fail(std::uint64_t ops, const std::string& why);
  [[nodiscard]] bool correct() const noexcept {
    return failed == 0 && errors.empty() && attempted > 0;
  }
  /// Single-line JSON record (metrics with quartiles and sample counts).
  [[nodiscard]] std::string ToJson(const Options& options) const;
};

/// Client-visible per-op latency (µs samples): sets `read_p50_us` (with
/// the sample count) in `out` and, as ungated info, `read_p99_us` and the
/// highest percentile that still has at least ten samples beyond it.
void ReportReadLatency(std::map<std::string, Metric>& out,
                       std::map<std::string, double>& info,
                       std::vector<double> micros, std::uint64_t ops_seen);

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMiB();

/// Resets the peak resident set to the current one (writes 5 to
/// /proc/self/clear_refs) and returns the current resident set (VmRSS),
/// MiB. `reset` tells whether the kernel accepted the reset.
double ResetPeakRss(bool& reset);

/// Host timer probe, recorded (ungated) in every record's info so that a
/// comparison between two sets of runs can tell host drift from a
/// regression: `host_sleep_overshoot_us`, the mean overshoot of a bare
/// loop of PreciseSleep(600 us), the call every device model, compute
/// and preprocessing delay is made of.
void ProbeHost(std::map<std::string, double>& info);

/// Aggregate CPU time of the host as this VM sees it (/proc/stat, ticks):
/// `steal` is time the hypervisor ran something else while a vCPU
/// wanted to run. Its share of `total` over a run is recorded as
/// `host_steal_pct`.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};
CpuTicks ReadCpuTicks();

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

constexpr double kMiB = 1024.0 * 1024.0;

/// splitmix64: derives independent sub-seeds from the --seed argument.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
