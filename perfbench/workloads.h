// The perfbench workloads. Each one walks a seeded scenario through
// the public pipeline (set-up, forecast, cold provision, plan, replay,
// signalling, replan) and reports every end-to-end metric from an untraced
// run, or every per-layer metric from a traced one. README.md in this
// directory says why each workload exists and what each metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;  ///< client threads / replay partitions (nproc)
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. Throws on an unexpected library error; output checks
/// that fail are reported through Outcome::errors instead.
Outcome run_workload(const RunOptions& options);

}  // namespace perfbench
