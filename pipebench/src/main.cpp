// pipebench: one workload of the SkeletonHunter pipeline benchmark per
// process.
//
//   pipebench --workload <fabric_24k|replay_97k|churn_spray> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--base-tick-ms <untraced tick_ms_p50 of the same seed>]
//
// The last line of standard output is the JSON result: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1. A failed output check
// exits 1. pipebench/run.py builds this binary and is the entry point the
// benchmark's BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "common/logging.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload <fabric_24k|replay_97k|"
               "churn_spray> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--base-tick-ms <ms>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else if (key == "--base-tick-ms") {
      args.base_tick_ms = std::strtod(val, nullptr);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();
  skh::set_log_threshold(skh::LogLevel::kError);
  if (args.workload == "fabric_24k") return pb::run_fabric(args);
  if (args.workload == "replay_97k") return pb::run_replay(args);
  if (args.workload == "churn_spray") return pb::run_churn(args);
  return usage();
}
