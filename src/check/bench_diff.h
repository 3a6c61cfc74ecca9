// Bench regression gate: structural comparison of two BENCH_*.json documents.
// Walks both DOMs in lockstep and reports every divergence with a JSON-path
// style location. Numbers compare under a configurable relative tolerance
// (plus a tiny absolute floor for values near zero); strings, bools, and
// structure must match exactly. Machine-dependent keys ("wall_clock_ms",
// "cpu_ms", "jobs" by default) are skipped wherever they appear, so goldens
// recorded on one host gate runs on another.
//
// Used by tools/bench_diff (nonzero exit on any difference) and wired into
// scripts/run_all.sh against the checked-in goldens under bench/golden/.
#ifndef SRC_CHECK_BENCH_DIFF_H_
#define SRC_CHECK_BENCH_DIFF_H_

#include <string>
#include <vector>

namespace deepplan {
namespace check {

struct BenchDiffOptions {
  double rel_tol = 0.0;   // relative tolerance for numeric leaves
  double abs_tol = 1e-9;  // absolute floor (values this close count equal)
  // Keys skipped at any depth — machine/load dependent, never regressions.
  std::vector<std::string> ignored_keys = {"wall_clock_ms", "cpu_ms", "jobs"};
};

struct BenchDiffEntry {
  std::string path;    // e.g. "points[3].mean_latency_ms"
  std::string detail;  // e.g. "12.5 -> 14.1 (rel diff 0.128 > tol 0.1)"
};

struct BenchDiffResult {
  bool parsed = false;       // both inputs were valid JSON
  std::string parse_error;   // set when !parsed
  std::vector<BenchDiffEntry> diffs;

  bool ok() const { return parsed && diffs.empty(); }
};

BenchDiffResult DiffBenchReports(const std::string& golden,
                                 const std::string& candidate,
                                 const BenchDiffOptions& options);

}  // namespace check
}  // namespace deepplan

#endif  // SRC_CHECK_BENCH_DIFF_H_
