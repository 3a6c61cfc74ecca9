// bench_diff: the regression gate. Compares a candidate BENCH_*.json against
// a checked-in golden and exits nonzero on any divergence beyond tolerance.
// Machine-dependent keys (wall_clock_ms, cpu_ms, jobs) are ignored at any depth, so
// goldens recorded on one host gate runs on another.
//
//   bench_diff [--tol=0.1] bench/golden/BENCH_fig15.json results/BENCH_fig15.json
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/bench_diff.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  deepplan::check::BenchDiffOptions options;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tol=", 0) == 0) {
      char* end = nullptr;
      options.rel_tol = std::strtod(arg.c_str() + 6, &end);
      if (end == nullptr || *end != '\0' || options.rel_tol < 0.0) {
        std::fprintf(stderr, "bad --tol value: %s\n", arg.c_str());
        return 2;
      }
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "usage: %s [--tol=X] <golden.json> <candidate.json>\n",
                 argv[0]);
    return 2;
  }

  std::string golden;
  std::string candidate;
  if (!ReadFile(paths[0], &golden)) {
    std::fprintf(stderr, "cannot read %s\n", paths[0].c_str());
    return 2;
  }
  if (!ReadFile(paths[1], &candidate)) {
    std::fprintf(stderr, "cannot read %s\n", paths[1].c_str());
    return 2;
  }

  const deepplan::check::BenchDiffResult result =
      deepplan::check::DiffBenchReports(golden, candidate, options);
  if (!result.parsed) {
    std::fprintf(stderr, "parse error: %s\n", result.parse_error.c_str());
    return 2;
  }
  if (result.ok()) {
    std::printf("OK %s vs %s (tol %g)\n", paths[0].c_str(), paths[1].c_str(),
                options.rel_tol);
    return 0;
  }
  std::fprintf(stderr, "REGRESSION %s vs %s: %zu difference(s)\n",
               paths[0].c_str(), paths[1].c_str(), result.diffs.size());
  for (const deepplan::check::BenchDiffEntry& diff : result.diffs) {
    std::fprintf(stderr, "  %s: %s\n", diff.path.c_str(),
                 diff.detail.c_str());
  }
  return 1;
}
