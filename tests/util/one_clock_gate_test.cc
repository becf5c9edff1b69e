// The one-clock gate (DESIGN.md "Time"): in src/ and tools/, every sleep
// and every read of "now" that acts on time goes through ProcessClock().
// Only util/clock.{h,cc} may call PreciseSleep, sleep_for or sleep_until,
// or read steady_clock directly; code that only measures time (Stopwatch,
// which lives in util/clock.h, the event tracer and the workload trace
// recorder) may read steady_clock as well.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#ifndef MONARCH_SOURCE_DIR
#error "tests/CMakeLists.txt must define MONARCH_SOURCE_DIR"
#endif

namespace monarch {
namespace {

namespace fs = std::filesystem;

constexpr std::array<std::string_view, 3> kSleeps = {
    "PreciseSleep(", "sleep_for(", "sleep_until("};
constexpr std::array<std::string_view, 2> kNowReads = {
    "steady_clock::now()", "SteadyClock::now()"};

/// Files (relative to the source root) that may sleep and read directly.
const std::set<std::string> kClockFiles = {"src/util/clock.h",
                                           "src/util/clock.cc"};
/// Files that only measure elapsed time and may read steady_clock.
const std::set<std::string> kMeasurementFiles = {
    "src/obs/event_tracer.cc", "src/workload/trace.h",
    "src/workload/trace.cc"};

/// "file:line: text" for every forbidden call in `text`, the contents of
/// `rel_path`.
std::vector<std::string> Violations(const std::string& rel_path,
                                    const std::string& text) {
  std::vector<std::string> out;
  if (kClockFiles.contains(rel_path)) return out;
  const bool measures = kMeasurementFiles.contains(rel_path);
  std::istringstream in(text);
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    bool bad = false;
    for (std::string_view needle : kSleeps) {
      bad = bad || line.find(needle) != std::string::npos;
    }
    for (std::string_view needle : kNowReads) {
      bad = bad || (!measures && line.find(needle) != std::string::npos);
    }
    if (bad) {
      out.push_back(rel_path + ":" + std::to_string(number) + ": " + line);
    }
  }
  return out;
}

TEST(OneClockGateTest, FlagsDirectSleepsAndNowReads) {
  EXPECT_EQ(1u, Violations("src/x.cc", "  PreciseSleep(d);\n").size());
  EXPECT_EQ(1u, Violations("src/x.cc", "std::this_thread::sleep_for(d);")
                    .size());
  EXPECT_EQ(1u, Violations("tools/x.cpp", "sleep_until(t);").size());
  EXPECT_EQ(1u, Violations("src/x.h", "a;\nb = SteadyClock::now();").size());
  EXPECT_EQ(1u, Violations("src/x.cc", "std::chrono::steady_clock::now()")
                    .size());
  EXPECT_TRUE(Violations("src/x.cc", "ProcessClock().SleepFor(d);").empty());
  // Measurement files may read the clock but still may not sleep.
  EXPECT_TRUE(Violations("src/workload/trace.cc", "SteadyClock::now()")
                  .empty());
  EXPECT_EQ(1u, Violations("src/obs/event_tracer.cc", "PreciseSleep(d);")
                    .size());
  EXPECT_TRUE(Violations("src/util/clock.h", "sleep_for(d - k);").empty());
}

TEST(OneClockGateTest, SrcAndToolsActOnTimeOnlyThroughTheProcessClock) {
  const fs::path root(MONARCH_SOURCE_DIR);
  std::size_t scanned = 0;
  std::vector<std::string> violations;
  for (const char* dir : {"src", "tools"}) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() ||
          (ext != ".h" && ext != ".cc" && ext != ".cpp")) {
        continue;
      }
      std::ifstream in(entry.path());
      std::stringstream text;
      text << in.rdbuf();
      for (std::string& v : Violations(
               fs::relative(entry.path(), root).generic_string(),
               text.str())) {
        violations.push_back(std::move(v));
      }
      ++scanned;
    }
  }
  EXPECT_GT(scanned, 100u) << "source tree not found under " << root;
  std::string report;
  for (const std::string& v : violations) report += "\n  " + v;
  EXPECT_TRUE(violations.empty())
      << "sleep or act on time through ProcessClock() (util/clock.h):"
      << report;
}

}  // namespace
}  // namespace monarch
