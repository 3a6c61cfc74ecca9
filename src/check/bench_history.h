// Bench wall-clock trajectory: scans directories of BENCH_*.json documents
// (the machine-readable output every bench writes, bench/bench_util.h) and
// tracks how each bench's wall_clock_ms and cpu_ms evolve across snapshots —
// the "is the simulator getting slower?" companion to bench_diff's "is it
// still correct?". Used by tools/bench_history for two jobs:
//
//   trajectory  — one row per (bench, snapshot dir) with the recorded wall
//                 clock, jobs, and point count, in directory order, so a CI
//                 archive of result dirs reads as a perf timeline; and
//   gate        — best-of candidate dirs vs best-of baseline dirs per bench,
//                 on process CPU time (cpu_ms); a candidate/baseline ratio
//                 above --max_slowdown fails. Best-of (minimum) on both
//                 sides absorbs scheduler noise: run each side several times
//                 and compare the fastest runs. CPU time, unlike the wall
//                 clock, leaves out the time other processes on a shared
//                 host take.
//
// Deliberately decoupled from the benches themselves: it only needs the four
// stable top-level fields ("bench", "jobs", "points", "wall_clock_ms"), plus
// "cpu_ms" where a report has it, so it works on any past or future
// BENCH_*.json without recompiling old binaries.
#ifndef SRC_CHECK_BENCH_HISTORY_H_
#define SRC_CHECK_BENCH_HISTORY_H_

#include <cstddef>
#include <string>
#include <vector>

namespace deepplan {
namespace check {

// One parsed BENCH_*.json document.
struct BenchRun {
  std::string path;        // file it came from
  std::string dir;         // snapshot directory it was scanned from
  std::string bench;       // top-level "bench" name
  int jobs = 0;            // DEEPPLAN_JOBS recorded by the run
  std::size_t num_points = 0;  // entries of "points"
  double wall_clock_ms = 0.0;
  double cpu_ms = -1.0;  // process CPU time; -1 when the report has none
};

// Scans `dir` (non-recursive) for files matching BENCH_*.json, in sorted
// filename order so output is host-independent. Unreadable or malformed
// files append a message to `errors` and are skipped.
std::vector<BenchRun> ScanBenchDir(const std::string& dir,
                                   std::vector<std::string>* errors);

// Per-bench verdict of the candidate-vs-baseline gate.
struct BenchComparison {
  std::string bench;
  double baseline_best_ms = -1.0;   // min over baseline runs; -1 if absent
  double candidate_best_ms = -1.0;  // min over candidate runs; -1 if absent
  double slowdown = 0.0;            // candidate_best / baseline_best
  bool regressed = false;           // slowdown > max_slowdown (gating only)
};

// Compares best (minimum) CPU time per bench name across the two run sets;
// runs without cpu_ms are left out. Benches present on only one side get
// best_ms -1 on the other and never regress (a new bench is not a
// slowdown). `max_slowdown` <= 0 means report-only: slowdowns are computed
// but `regressed` stays false.
std::vector<BenchComparison> CompareBenchRuns(
    const std::vector<BenchRun>& baseline,
    const std::vector<BenchRun>& candidate, double max_slowdown);

}  // namespace check
}  // namespace deepplan

#endif  // SRC_CHECK_BENCH_HISTORY_H_
