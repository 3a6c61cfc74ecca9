// journal_convert: exports a binary DPJL causal journal (what --profile_out
// and bench_scaling --journal_out record) as the {"causal_journal":...} JSON
// document — human-greppable, and the format of the byte goldens. The export
// is exact: it emits the same bytes CausalGraph::ToJson() would have
// produced for the recording run. Binary is the record; nothing reads the
// JSON back (summarize a journal with `trace_lint --journal`).
//
//   journal_convert --to-json results/profile_fig15.dpj out.json
#include <cstdio>
#include <string>

#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/util/json.h"

int main(int argc, char** argv) {
  if (argc != 4 || std::string(argv[1]) != "--to-json") {
    std::fprintf(stderr, "usage: %s --to-json <journal.dpj> <out.json>\n",
                 argv[0]);
    return 2;
  }
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  deepplan::CausalGraph graph;
  std::string error;
  if (!deepplan::ReadJournalToGraph(in_path, &graph, &error)) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(), error.c_str());
    return 1;
  }
  if (!deepplan::WriteJsonFile(out_path, graph.ToJson())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
