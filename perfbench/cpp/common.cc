#include "common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/clock.h"

namespace perfbench {

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method='exclusive'): m = n + 1, cut points at
  // i*m/4 with linear interpolation, clamped to the sample range.
  const auto cut = [&](int i) {
    const long long m = static_cast<long long>(n) + 1;
    long long j = i * m / 4;
    j = std::clamp<long long>(j, 1, m - 1);
    const long long delta = i * m - j * 4;
    const double lo = values[static_cast<std::size_t>(j - 1)];
    const double hi = values[static_cast<std::size_t>(std::min<long long>(
        j, static_cast<long long>(n) - 1))];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[index - 1];
}

void Reservoir::Add(double value) {
  ++seen_;
  if (samples_.size() < cap_) {
    samples_.push_back(value);
    return;
  }
  std::uniform_int_distribution<std::uint64_t> pick(0, seen_ - 1);
  const std::uint64_t slot = pick(rng_);
  if (slot < cap_) samples_[static_cast<std::size_t>(slot)] = value;
}

void Report::Fail(std::uint64_t ops, const std::string& why) {
  failed += ops;
  if (errors.size() < 8) errors.push_back(why);
}

void ReportReadLatency(std::map<std::string, Metric>& out,
                       std::map<std::string, double>& info,
                       std::vector<double> micros, std::uint64_t ops_seen) {
  std::sort(micros.begin(), micros.end());
  Summary p50;
  p50.median = SortedPercentile(micros, 50);
  p50.q1 = SortedPercentile(micros, 25);
  p50.q3 = SortedPercentile(micros, 75);
  p50.n = ops_seen;
  out["read_p50_us"] = Metric{"us", p50};
  // The tail is recorded but not gated: sleep-modelled device time makes
  // it swing by 2-3x with the host's timer precision (see README).
  info["read_p99_us"] = SortedPercentile(micros, 99);
  // The highest standard percentile with at least ten samples beyond it.
  double tail = 50;
  for (double p : {90.0, 99.0, 99.9, 99.99, 99.999}) {
    if (static_cast<double>(micros.size()) * (1.0 - p / 100.0) >= 10.0) {
      tail = p;
    }
  }
  info["read_latency_samples"] = static_cast<double>(ops_seen);
  info["read_tail_percentile"] = tail;
  info["read_tail_us"] = SortedPercentile(micros, tail);
}

namespace {

/// A "Name:  N kB" field of /proc/self/status, MiB (0 if absent).
double StatusMiB(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMiB() { return StatusMiB("VmHWM"); }

double ResetPeakRss(bool& reset) {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  reset = static_cast<bool>(clear);
  return StatusMiB("VmRSS");
}

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks ticks;
  double field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    ticks.total += field;
    if (i == 7) ticks.steal = field;
  }
  return ticks;
}

void ProbeHost(std::map<std::string, double>& info) {
  constexpr int kSleeps = 500;
  constexpr std::int64_t kSleepUs = 600;
  const std::int64_t start = NowNs();
  for (int i = 0; i < kSleeps; ++i) {
    monarch::PreciseSleep(monarch::Micros(kSleepUs));
  }
  const double per_sleep_us =
      static_cast<double>(NowNs() - start) / 1e3 / kSleeps;
  info["host_sleep_overshoot_us"] = per_sleep_us - kSleepUs;
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CompilerString() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string Report::ToJson(const Options& options) const {
  std::ostringstream out;
  out << "{\"workload\":" << Quote(options.workload)
      << ",\"seed\":" << options.seed
      << ",\"seconds\":" << Num(options.seconds)
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"tiny\":" << (options.tiny ? "true" : "false")
      << ",\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"failed_op_ratio\":"
      << Num(attempted == 0 ? 1.0
                            : static_cast<double>(failed) /
                                  static_cast<double>(attempted))
      << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i ? "," : "") << Quote(errors[i]);
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ",") << Quote(name) << ":{\"value\":"
        << Num(metric.summary.median) << ",\"unit\":" << Quote(metric.unit)
        << ",\"q1\":" << Num(metric.summary.q1)
        << ",\"q3\":" << Num(metric.summary.q3)
        << ",\"n\":" << metric.summary.n << "}";
    first = false;
  }
  out << "},\"traced_e2e\":{";
  first = true;
  for (const auto& [name, metric] : traced_e2e) {
    out << (first ? "" : ",") << Quote(name) << ":{\"value\":"
        << Num(metric.summary.median) << ",\"unit\":" << Quote(metric.unit)
        << ",\"n\":" << metric.summary.n << "}";
    first = false;
  }
  out << "},\"layers\":{";
  first = true;
  for (const auto& [name, layer] : span_layers) {
    out << (first ? "" : ",") << Quote(name) << ":{\"count\":" << layer.count
        << ",\"busy_s\":" << Num(layer.busy_s)
        << ",\"self_s\":" << Num(layer.self_s)
        << ",\"root\":" << (layer.root ? "true" : "false") << "}";
    first = false;
  }
  out << "},\"info\":{";
  first = true;
  for (const auto& [name, value] : info) {
    out << (first ? "" : ",") << Quote(name) << ":" << Num(value);
    first = false;
  }
  out << "},\"build\":{\"compiler\":" << Quote(CompilerString())
      << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
      << ",\"nproc\":" << std::thread::hardware_concurrency() << "}}";
  return out.str();
}

}  // namespace perfbench
