// cure_perfbench — the repository benchmark program.
//
//   cure_perfbench --workload <build_apb|serve_drill|cluster_scatter|live_ingest>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir> --out-dir <dir>
//                  [--scale-divisor <n>] [--corrupt-expected]
//
// Runs one workload in this process, checks every answer against the
// benchmark's own group-by, and prints one JSON object as the last line of
// stdout: the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this program and calls it.

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "workloads.h"

extern char** environ;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cure_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --out-dir <dir> "
               "[--scale-divisor <n>] [--corrupt-expected]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t start_us = perfbench::NowMicros();
  perfbench::Options options;
  std::string work_root;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--work-dir" && has_value) {
      work_root = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--scale-divisor" && has_value) {
      options.scale_divisor = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--corrupt-expected") {
      options.corrupt_expected = true;
    } else {
      return Usage();
    }
  }
  const perfbench::WorkloadFn workload = perfbench::FindWorkload(options.workload);
  if (workload == nullptr || work_root.empty() || options.out_dir.empty() ||
      options.seconds <= 0 || options.scale_divisor == 0) {
    return Usage();
  }

  // Hermetic runs: CURE_NET_FAULT would arm the fault injector, CURE_TRACE
  // the library tracer, CURE_THREADS / CURE_BATCH_ROWS would change the
  // program under test. Any CURE_* variable is refused.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CURE_", 5) == 0) {
      std::fprintf(stderr, "refusing to run with %s set in the environment\n",
                   *env);
      return 2;
    }
  }

  // glibc moves its mmap threshold with the allocation history, which made
  // peak RSS depend on the order of earlier frees rather than on the memory
  // the program holds. A fixed threshold (which also fixes the trim
  // threshold) keeps peak_rss_mb a measure of live memory.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  options.work_dir = work_root + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  if (options.trace) perfbench::Spans::Get().Enable();

  perfbench::Report report;
  const int rc = workload(options, start_us, &report);
  std::filesystem::remove_all(options.work_dir, ec);
  if (rc != 0) return rc;
  if (options.trace) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    if (!perfbench::Spans::Get().WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    perfbench::Log("spans written to %s", path.c_str());
  }
  report.Print();
  return 0;
}
