// bench_history: wall-clock trajectory and slowdown gate over directories of
// BENCH_*.json snapshots (src/check/bench_history.h). Positional directories
// are snapshots in order (oldest first); the trajectory table prints every
// bench's recorded wall clock and CPU time per snapshot.
//
//   bench_history results/2026-08-01 results/2026-08-05 results/today
//   bench_history --max_slowdown=1.03 baseline1 baseline2
//       --candidate=cand1 --candidate=cand2      (one command line)
//
// --candidate=DIR    repeatable: dirs holding the runs under test. Without
//                    any, the last positional dir is the candidate and the
//                    rest are baseline.
// --max_slowdown=R   gate: per bench, best-of-candidate CPU time (cpu_ms)
//                    divided by best-of-baseline above R exits 1. 0
//                    (default) reports the ratios without failing.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/check/bench_history.h"

int main(int argc, char** argv) {
  using deepplan::check::BenchComparison;
  using deepplan::check::BenchRun;
  double max_slowdown = 0.0;
  std::vector<std::string> dirs;
  std::vector<std::string> candidate_dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--max_slowdown=", 0) == 0) {
      max_slowdown = std::strtod(arg.c_str() + 15, nullptr);
    } else if (arg.rfind("--candidate=", 0) == 0) {
      candidate_dirs.push_back(arg.substr(12));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty() && candidate_dirs.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--max_slowdown=R] [--candidate=DIR ...] "
                 "<snapshot dir> [more dirs ...]\n",
                 argv[0]);
    return 2;
  }
  // Without explicit candidates, the newest snapshot is the candidate (only
  // meaningful when gating; the trajectory covers every dir either way).
  if (candidate_dirs.empty() && dirs.size() > 1) {
    candidate_dirs.push_back(dirs.back());
  }

  const auto is_candidate = [&](const std::string& dir) {
    return std::find(candidate_dirs.begin(), candidate_dirs.end(), dir) !=
           candidate_dirs.end();
  };
  // Trajectory covers every dir once: positional order, then any --candidate
  // dirs not already listed positionally.
  std::vector<std::string> scan_dirs = dirs;
  for (const std::string& dir : candidate_dirs) {
    if (std::find(dirs.begin(), dirs.end(), dir) == dirs.end()) {
      scan_dirs.push_back(dir);
    }
  }

  std::vector<std::string> errors;
  std::vector<BenchRun> all;       // every scanned run, dir order
  std::vector<BenchRun> baseline;  // runs from non-candidate dirs
  std::vector<BenchRun> candidate;
  for (const std::string& dir : scan_dirs) {
    std::vector<BenchRun> runs = deepplan::check::ScanBenchDir(dir, &errors);
    for (BenchRun& run : runs) {
      all.push_back(run);
      (is_candidate(dir) ? candidate : baseline).push_back(std::move(run));
    }
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "warning: %s\n", error.c_str());
  }
  if (all.empty()) {
    std::fprintf(stderr, "no BENCH_*.json found\n");
    return 2;
  }

  std::printf("%-12s %-28s %6s %7s %12s %12s\n", "bench", "snapshot", "jobs",
              "points", "wall ms", "cpu ms");
  for (const BenchRun& run : all) {
    std::printf("%-12s %-28s %6d %7zu %12.1f %12.1f\n", run.bench.c_str(),
                run.dir.c_str(), run.jobs, run.num_points, run.wall_clock_ms,
                run.cpu_ms);
  }

  if (baseline.empty() || candidate.empty()) {
    return 0;  // single snapshot: trajectory only, nothing to gate
  }
  const std::vector<BenchComparison> comparisons =
      deepplan::check::CompareBenchRuns(baseline, candidate, max_slowdown);
  std::printf("\n%-12s %14s %14s %9s\n", "bench", "base cpu ms",
              "cand cpu ms", "ratio");
  int regressions = 0;
  for (const BenchComparison& cmp : comparisons) {
    if (cmp.baseline_best_ms < 0.0 || cmp.candidate_best_ms < 0.0) {
      std::printf("%-12s %14s %14s %9s\n", cmp.bench.c_str(),
                  cmp.baseline_best_ms < 0.0 ? "-" : "present",
                  cmp.candidate_best_ms < 0.0 ? "-" : "present", "n/a");
      continue;
    }
    std::printf("%-12s %14.1f %14.1f %8.3fx%s\n", cmp.bench.c_str(),
                cmp.baseline_best_ms, cmp.candidate_best_ms, cmp.slowdown,
                cmp.regressed ? "  REGRESSED" : "");
    if (cmp.regressed) {
      ++regressions;
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "FAIL: %d bench(es) above --max_slowdown=%.3f (best-of "
                 "candidate vs best-of baseline)\n",
                 regressions, max_slowdown);
    return 1;
  }
  return 0;
}
