#include "src/check/bench_history.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "src/util/json_parse.h"

namespace deepplan {
namespace check {

namespace {

bool IsBenchFile(const std::string& name) {
  constexpr const char kPrefix[] = "BENCH_";
  constexpr const char kSuffix[] = ".json";
  return name.size() > sizeof(kPrefix) + sizeof(kSuffix) - 2 &&
         name.compare(0, sizeof(kPrefix) - 1, kPrefix) == 0 &&
         name.compare(name.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                      kSuffix) == 0;
}

bool ParseBenchRun(const std::string& path, const std::string& dir,
                   BenchRun* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const JsonParseResult parsed = ParseJson(buffer.str());
  if (!parsed.ok) {
    *error = path + ": " + parsed.error;
    return false;
  }
  const JsonValue& doc = parsed.value;
  const JsonValue* bench = doc.is_object() ? doc.Find("bench") : nullptr;
  const JsonValue* jobs = doc.is_object() ? doc.Find("jobs") : nullptr;
  const JsonValue* points = doc.is_object() ? doc.Find("points") : nullptr;
  const JsonValue* wall = doc.is_object() ? doc.Find("wall_clock_ms") : nullptr;
  if (bench == nullptr || !bench->is_string() || jobs == nullptr ||
      !jobs->is_number() || points == nullptr || !points->is_array() ||
      wall == nullptr || !wall->is_number() || wall->AsNumber() < 0.0) {
    *error = path + ": not a BENCH report (need bench/jobs/points/wall_clock_ms)";
    return false;
  }
  out->path = path;
  out->dir = dir;
  out->bench = bench->AsString();
  out->jobs = static_cast<int>(jobs->AsNumber());
  out->num_points = points->items().size();
  out->wall_clock_ms = wall->AsNumber();
  const JsonValue* cpu = doc.Find("cpu_ms");
  out->cpu_ms = cpu != nullptr && cpu->is_number() ? cpu->AsNumber() : -1.0;
  return true;
}

}  // namespace

std::vector<BenchRun> ScanBenchDir(const std::string& dir,
                                   std::vector<std::string>* errors) {
  std::vector<BenchRun> runs;
  std::error_code ec;
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && IsBenchFile(entry.path().filename())) {
      names.push_back(entry.path().filename());
    }
  }
  if (ec) {
    if (errors != nullptr) {
      errors->push_back("cannot scan " + dir + ": " + ec.message());
    }
    return runs;
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    BenchRun run;
    std::string error;
    if (ParseBenchRun(dir + "/" + name, dir, &run, &error)) {
      runs.push_back(std::move(run));
    } else if (errors != nullptr) {
      errors->push_back(std::move(error));
    }
  }
  return runs;
}

std::vector<BenchComparison> CompareBenchRuns(
    const std::vector<BenchRun>& baseline,
    const std::vector<BenchRun>& candidate, double max_slowdown) {
  // Best (minimum) CPU time per bench name on each side; std::map keys the
  // output alphabetically, independent of scan order.
  const auto best_of = [](const std::vector<BenchRun>& runs) {
    std::map<std::string, double> best;
    for (const BenchRun& run : runs) {
      if (run.cpu_ms < 0.0) {
        continue;  // a report from before cpu_ms existed
      }
      const auto [it, inserted] = best.emplace(run.bench, run.cpu_ms);
      if (!inserted) {
        it->second = std::min(it->second, run.cpu_ms);
      }
    }
    return best;
  };
  const std::map<std::string, double> base_best = best_of(baseline);
  const std::map<std::string, double> cand_best = best_of(candidate);
  std::map<std::string, BenchComparison> merged;
  for (const auto& [bench, best] : base_best) {
    merged[bench].bench = bench;
    merged[bench].baseline_best_ms = best;
  }
  for (const auto& [bench, best] : cand_best) {
    merged[bench].bench = bench;
    merged[bench].candidate_best_ms = best;
  }
  std::vector<BenchComparison> out;
  for (auto& [bench, cmp] : merged) {
    if (cmp.baseline_best_ms > 0.0 && cmp.candidate_best_ms >= 0.0) {
      cmp.slowdown = cmp.candidate_best_ms / cmp.baseline_best_ms;
      cmp.regressed = max_slowdown > 0.0 && cmp.slowdown > max_slowdown;
    }
    out.push_back(std::move(cmp));
  }
  return out;
}

}  // namespace check
}  // namespace deepplan
