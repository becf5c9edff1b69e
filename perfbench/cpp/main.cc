// perfbench: the repository's benchmark driver.
//
//   perfbench --workload train_fit|cluster_packed|read_hot --seed N
//             --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//
// Prints one JSON record as its last stdout line: every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1), each with
// its median, quartiles and sample count, plus the op accounting and the
// oracle verdict. Exit code 0 when the run completed (the verdict is in
// the record), 2 on bad arguments.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload train_fit|cluster_packed|read_hot"
               " --seed N --seconds S --trace 0|1 [--tiny]"
               " [--trace-out FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0)) return Usage();

  void (*run)(const perfbench::Options&, perfbench::Report&) = nullptr;
  if (options.workload == "train_fit") {
    run = perfbench::RunTrainFit;
  } else if (options.workload == "cluster_packed") {
    run = perfbench::RunClusterPacked;
  } else if (options.workload == "read_hot") {
    run = perfbench::RunReadHot;
  } else {
    return Usage();
  }

  std::unique_ptr<perfbench::Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<perfbench::Tracer>(/*max_kept_spans=*/100000);
  }
  perfbench::Report report;
  perfbench::ProbeHost(report.info);
  const perfbench::CpuTicks ticks_start = perfbench::ReadCpuTicks();
  run(options, report);
  const perfbench::CpuTicks ticks_end = perfbench::ReadCpuTicks();
  if (ticks_end.total > ticks_start.total) {
    report.info["host_steal_pct"] =
        100 * (ticks_end.steal - ticks_start.steal) /
        (ticks_end.total - ticks_start.total);
  }
  if (tracer != nullptr) {
    report.info["trace_kept_spans"] =
        static_cast<double>(tracer->kept_spans());
    report.info["trace_dropped_spans"] =
        static_cast<double>(tracer->dropped_spans());
    if (!options.trace_out.empty() &&
        !tracer->WriteChromeTrace(options.trace_out)) {
      report.Fail(0, "cannot write " + options.trace_out);
    }
  }
  for (const std::string& error : report.errors) {
    std::cerr << "perfbench: " << options.workload << ": " << error << "\n";
  }
  std::cout << report.ToJson(options) << std::endl;
  return 0;
}
