/// \file main.cc
/// \brief perfbench: runs one workload and prints its report as the last
/// line of standard output (one JSON object). perfbench/run.py builds
/// this binary, runs it, and turns the report into the benchmark result.
///
///   perfbench --workload batch-miss|stream-hit|durable-churn --seed N
///             --seconds S --trace 0|1 --work-dir DIR [--stream-rate R]
///
/// Exit code 0 when every output matched its oracle, 1 otherwise, 2 on a
/// usage error.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--stream-rate R]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  uint64_t seconds = 0, trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      ok = ParseUnsigned(value, &options.seed);
    } else if (flag == "--seconds") {
      ok = ParseUnsigned(value, &seconds) && seconds > 0;
    } else if (flag == "--trace") {
      ok = ParseUnsigned(value, &trace) && trace <= 1;
    } else if (flag == "--stream-rate") {
      ok = ParseUnsigned(value, &options.stream_rate);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
    if (!ok) return Usage("bad value for " + flag + ": " + value);
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  if (seconds == 0 || options.work_dir.empty()) {
    return Usage("--seconds and --work-dir are required");
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  perfbench::Report report;
  if (options.workload == "batch-miss") {
    perfbench::RunBatchMiss(options, &report);
  } else if (options.workload == "stream-hit") {
    perfbench::RunStreamHit(options, &report);
  } else if (options.workload == "durable-churn") {
    perfbench::RunDurableChurn(options, &report);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  std::cout << report.ToJson(options) << std::endl;
  return report.correct() ? 0 : 1;
}
