// sb_perfbench: runs one Switchboard workload end to end and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   sb_perfbench --workload=busy_window|flash_crowd --seed=N
//                --seconds=S --trace=0|1 [--source=ID]
//
// --trace=0 reports the end-to-end metrics of an untraced run; --trace=1
// runs traced and reports the per-layer metrics. Client threads and replay
// partitions number the machine's hardware concurrency. --source is an
// identifier of the source tree recorded in the provenance line.
// perfbench/run.py builds this binary and is the usual way to invoke it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

constexpr const char* kUsage =
    "usage: sb_perfbench --workload=busy_window|flash_crowd "
    "--seed=N --seconds=S --trace=0|1 [--source=ID]\n";

int usage_error(const std::string& why) {
  std::cerr << "sb_perfbench: " << why << "\n" << kUsage;
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         std::isfinite(out);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  std::string source = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return usage_error("bad argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    double number = 0.0;
    if (key == "workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "source") {
      source = value;
    } else if (!parse_number(value, number) || number < 0.0) {
      return usage_error("bad value in '" + arg + "'");
    } else if (key == "seed") {
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (key == "seconds") {
      opt.seconds = number;
    } else if (key == "trace") {
      if (number != 0.0 && number != 1.0) {
        return usage_error("--trace must be 0 or 1");
      }
      opt.trace = number == 1.0;
    } else {
      return usage_error("unknown flag --" + key);
    }
  }
  const auto& names = perfbench::workload_names();
  if (!have_workload ||
      std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return usage_error("unknown workload '" + opt.workload + "'");
  }

  // perfbench/CMakeLists.txt always compiles metrics and tracing in.
  const char* metrics_flag = SB_METRICS_ENABLED ? "ON" : "OFF";
  const char* tracing_flag = SB_TRACING_ENABLED ? "ON" : "OFF";
  std::cout << "provenance {\"source\": " << json_string(source)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"threads\": " << opt.threads
            << ", \"compiler\": " << json_string(SB_PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(SB_PERFBENCH_BUILD_TYPE)
            << ", \"SB_METRICS\": \"" << metrics_flag
            << "\", \"SB_TRACING\": \"" << tracing_flag
            << "\", \"workload\": " << json_string(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
            << ", \"trace\": " << (opt.trace ? 1 : 0) << "}\n";

  perfbench::Outcome outcome;
  try {
    outcome = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "sb_perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  for (const perfbench::Metric& m : outcome.metrics) {
    outcome.check(std::isfinite(m.value), m.name + " is not finite");
  }
  for (const std::string& e : outcome.errors) {
    std::cerr << "check failed: " << e << "\n";
  }
  std::string metrics;
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " +
               json_number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (outcome.errors.empty() ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
