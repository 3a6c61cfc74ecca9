// Timeline export: run one cold start with a causal graph attached to the
// engine, derive its Chrome trace from the graph (CausalTrace) and write it
// (open in chrome://tracing or ui.perfetto.dev). The resulting picture is
// the paper's Figure 9 — PCIe loads, NVLink migration, and execution
// overlapping across tracks, with per-link bandwidth counters — generated
// from an actual simulated run.
//
//   ./build/examples/timeline_export --model=bert_base --strategy=pt_dha
//       --out=timeline.json
#include <iostream>

#include "src/deepplan.h"

int main(int argc, char** argv) {
  using namespace deepplan;

  Flags flags;
  flags.DefineString("model", "bert_base", "zoo model name");
  flags.DefineString("strategy", "pt_dha", "baseline|pipeswitch|dha|pt|pt_dha");
  flags.DefineString("out", "timeline.json", "output Chrome-trace JSON path");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  const std::string strategy_name = flags.GetString("strategy");
  const Strategy strategy = strategy_name == "baseline"     ? Strategy::kBaseline
                            : strategy_name == "pipeswitch" ? Strategy::kPipeSwitch
                            : strategy_name == "dha"        ? Strategy::kDeepPlanDha
                            : strategy_name == "pt"         ? Strategy::kDeepPlanPt
                                                            : Strategy::kDeepPlanPtDha;

  const Model model = ModelZoo::ByName(flags.GetString("model"));
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const ModelProfile profile = Profiler(&perf).Profile(model);
  const int degree = StrategyDegree(strategy, topology, 0);
  const ExecutionPlan plan = MakeStrategyPlan(strategy, profile, degree);

  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  CausalGraph graph;
  engine.set_causal(&graph);
  ColdRunOptions options = MakeColdRunOptions(strategy);
  options.causal_request =
      graph.BeginRequest(graph.RegisterProcess(StrategyName(strategy)), 0, 0);
  InferenceResult result;
  engine.RunCold(model, plan, 0,
                 TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                 options, [&](const InferenceResult& r) {
                   result = r;
                   graph.EndRequest(options.causal_request, sim.now(),
                                    r.causal_terminal);
                 });
  sim.Run();

  const TraceDocument trace = CausalTrace(graph);
  if (!ChromeTraceWriter::WriteTo(flags.GetString("out"), trace)) {
    std::cerr << "failed to write " << flags.GetString("out") << "\n";
    return 1;
  }
  std::cout << StrategyName(strategy) << " cold start of " << model.name() << ": "
            << FormatDuration(result.latency) << " (" << trace.events.size()
            << " trace events)\n"
            << "wrote " << flags.GetString("out")
            << " — open in chrome://tracing or ui.perfetto.dev\n";
  return 0;
}
