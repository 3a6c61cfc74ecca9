// Shared helpers for the figure/table reproduction benches: single-run and
// repeated cold-start measurement on a chosen topology, with exact or noisy
// profiling. Every bench prints the paper's rows through util::Table and can
// additionally emit a machine-readable BENCH_<name>.json via BenchReport;
// benches that record telemetry, journals or host profiles write them
// through BenchOutputs.
//
// Repetition loops run on SweepRunner: tasks fan out over DEEPPLAN_JOBS
// worker threads, results aggregate in task order, so bench output is
// byte-identical for any thread count (DEEPPLAN_JOBS=1 runs inline).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "src/deepplan.h"
#include "src/util/logging.h"

namespace deepplan {
namespace bench {

struct ColdMeasurement {
  InferenceResult result;
  ExecutionPlan plan;
};

// Profiles `model` on `perf` with measurement noise disabled (benches report
// the model's deterministic ground truth; the profiler's noise handling is
// exercised in tests and Table 5).
inline ModelProfile ExactProfile(const PerfModel& perf, const Model& model,
                                 int batch = 1) {
  ProfilerOptions opts;
  opts.noise_stddev = 0.0;
  opts.batch = batch;
  return Profiler(&perf, opts).Profile(model);
}

// Single source of the degree/pipeline/plan derivation every cold run needs.
// Returns the strategy's plan for `profile`; the transmission degree used is
// written to `degree_out` when non-null.
inline ExecutionPlan PlanFor(const Topology& topology, Strategy strategy,
                             const ModelProfile& profile, int* degree_out = nullptr) {
  const int degree = StrategyDegree(strategy, topology, /*primary=*/0);
  PipelineOptions pipeline;
  pipeline.nvlink = topology.nvlink();
  if (degree_out != nullptr) {
    *degree_out = degree;
  }
  return MakeStrategyPlan(strategy, profile, degree, pipeline);
}

// Runs one cold start of `strategy` for `model` using a pre-computed profile,
// on a fresh simulator/fabric. Self-contained and thread-safe: every call
// builds its own Simulator/ServerFabric/Engine, so SweepRunner tasks can call
// it concurrently. When `causal` points at an enabled graph the run records
// its happens-before DAG there as one cold request under `causal_process`
// (critical-path profiling, --profile_out).
inline ColdMeasurement RunColdWithProfile(const Topology& topology,
                                          const PerfModel& perf, const Model& model,
                                          Strategy strategy,
                                          const ModelProfile& profile,
                                          int batch = 1,
                                          CausalGraph* causal = nullptr,
                                          int causal_process = 0,
                                          int causal_instance = 0) {
  int degree = 0;
  ColdMeasurement m{{}, PlanFor(topology, strategy, profile, &degree)};
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  ColdRunOptions options = MakeColdRunOptions(strategy, batch);
  int request = -1;
  if (causal != nullptr && causal->enabled()) {
    engine.set_causal(causal);
    request = causal->BeginRequest(causal_process, causal_instance, sim.now());
    causal->MarkCold(request);
    options.causal_request = request;
    options.causal_root = causal->arrival_node(request);
  }
  engine.RunCold(model, m.plan, /*primary=*/0,
                 TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                 options,
                 [&m, &sim, causal, request](const InferenceResult& r) {
                   m.result = r;
                   if (request >= 0) {
                     causal->EndRequest(request, sim.now(), r.causal_terminal);
                   }
                 });
  sim.Run();
  return m;
}

// Runs one cold start of `strategy` for `model` with an exact (noise-free)
// profile on a fresh simulator/fabric.
inline ColdMeasurement RunColdOnce(const Topology& topology, const PerfModel& perf,
                                   const Model& model, Strategy strategy,
                                   int batch = 1) {
  return RunColdWithProfile(topology, perf, model, strategy,
                            ExactProfile(perf, model, batch), batch);
}

// Mean cold latency over `runs` independent repetitions with profiling noise
// re-sampled per run (mirrors the paper's "averaged on 100 runs"). Run r is a
// pure function of its index (profiler seed 1000 + r), so the repetitions fan
// out over `runner`'s threads and the mean — accumulated in run order after
// the sweep — is byte-identical for any DEEPPLAN_JOBS.
inline double MeanColdLatencyMs(const Topology& topology, const PerfModel& perf,
                                const Model& model, Strategy strategy, int runs,
                                int batch = 1,
                                const SweepRunner& runner = SweepRunner()) {
  const std::vector<double> latencies_ms =
      runner.Map(runs, [&](int r) {
        ProfilerOptions opts;
        opts.seed = 1000 + static_cast<std::uint64_t>(r);
        opts.batch = batch;
        const ModelProfile profile = Profiler(&perf, opts).Profile(model);
        return ToMillis(
            RunColdWithProfile(topology, perf, model, strategy, profile, batch)
                .result.latency);
      });
  StreamingStats stats;
  for (const double ms : latencies_ms) {
    stats.Add(ms);
  }
  return stats.mean();
}

inline std::string PrettyModelName(const std::string& zoo_name) {
  if (zoo_name == "resnet50") return "ResNet-50";
  if (zoo_name == "resnet101") return "ResNet-101";
  if (zoo_name == "bert_base") return "BERT-Base";
  if (zoo_name == "bert_large") return "BERT-Large";
  if (zoo_name == "roberta_base") return "RoBERTa-Base";
  if (zoo_name == "roberta_large") return "RoBERTa-Large";
  if (zoo_name == "gpt2") return "GPT-2";
  if (zoo_name == "gpt2_medium") return "GPT-2 Medium";
  return zoo_name;
}

// Machine-readable bench output: config key/values, one JsonObject per data
// point, plus the worker count, wall clock and process CPU time of the run.
// Write() renders
//   {"bench":<name>,"jobs":N,"config":{...},"points":[...],
//    "wall_clock_ms":T,"cpu_ms":C}
// to BENCH_<name>.json in $DEEPPLAN_BENCH_DIR (default: current directory).
// Everything except wall_clock_ms and cpu_ms is deterministic for a given
// config and independent of DEEPPLAN_JOBS; the wall clock is what records
// the sweep speedup across thread counts, and CPU time (summed over threads,
// blind to other processes on the host) is what overhead gates compare.
class BenchReport {
 public:
  explicit BenchReport(std::string name, int jobs = DefaultSweepJobs())
      : name_(std::move(name)),
        jobs_(jobs),
        // deepplan-lint: allow(raw-entropy, wall-clock bench timing; only feeds wall_clock_ms, which the golden gate ignores)
        start_(std::chrono::steady_clock::now()),
        start_cpu_ns_(selfprof::ProcessCpuNs()) {}

  JsonObject& config() { return config_; }

  // Adds a data point; references stay valid as points accumulate.
  JsonObject& AddPoint() {
    points_.emplace_back();
    return points_.back();
  }

  std::string ToJson() const {
    DP_SELFPROF_SCOPE(kReportRender);
    const double wall_ms =
        // deepplan-lint: allow(raw-entropy, wall-clock bench timing; only feeds wall_clock_ms, which the golden gate ignores)
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start_)
            .count();
    JsonArray points;
    for (const JsonObject& p : points_) {
      points.AddRaw(p.Render());
    }
    JsonObject doc;
    doc.Set("bench", name_)
        .Set("jobs", jobs_)
        .SetRaw("config", config_.Render())
        .SetRaw("points", points.Render())
        .Set("wall_clock_ms", wall_ms)
        .Set("cpu_ms",
             static_cast<double>(selfprof::ProcessCpuNs() - start_cpu_ns_) / 1e6);
    return doc.Render();
  }

  // Writes BENCH_<name>.json; returns the path, or "" on I/O failure. Notes
  // the destination on `log` (stderr by default) so table output on stdout
  // stays byte-identical across thread counts.
  std::string Write(std::ostream* log = nullptr) const {
    const char* dir = std::getenv("DEEPPLAN_BENCH_DIR");
    std::string path = (dir != nullptr && *dir != '\0') ? std::string(dir) : ".";
    path += "/BENCH_" + name_ + ".json";
    if (!WriteJsonFile(path, ToJson())) {
      if (log != nullptr) {
        *log << "cannot write " << path << "\n";
      }
      return "";
    }
    if (log != nullptr) {
      *log << "wrote " << path << "\n";
    }
    return path;
  }

 private:
  std::string name_;
  int jobs_;
  // deepplan-lint: allow(raw-entropy, wall-clock bench timing; only feeds wall_clock_ms, which the golden gate ignores)
  std::chrono::steady_clock::time_point start_;
  std::int64_t start_cpu_ns_;
  JsonObject config_;
  std::deque<JsonObject> points_;  // deque: AddPoint() references stay valid
};

// The output files a bench writes besides BENCH_<name>.json. Each is one
// --<x>_out flag, defaulting to its environment variable where it has one;
// an empty path disables the output.
//
//   kTrace      --trace_out     $DEEPPLAN_TRACE     Chrome/Perfetto trace
//   kProfile    --profile_out   $DEEPPLAN_PROFILE   binary causal journal
//   kWhatIf     --whatif_out    $DEEPPLAN_WHATIF    {"whatif_report":...}
//   kSelfprof   --selfprof_out  $DEEPPLAN_SELFPROF  host self-profile report
//   kPerPointJournal  --journal_out  (no default)   path prefix for one
//                                                   streamed journal per point
//
// A bench names the outputs it supports and the harness defines their flags
// and does every write: one checked write, then one stderr line ("wrote
// <what> <path>" or "cannot write <what> <path>"), returning false on failure
// so the bench exits nonzero. stdout, which the goldens pin, sees none of it.
class BenchOutputs {
 public:
  enum Output : unsigned {
    kTrace = 1u << 0,
    kProfile = 1u << 1,
    kWhatIf = 1u << 2,
    kSelfprof = 1u << 3,
    kPerPointJournal = 1u << 4,
  };

  // Defines the flags of `outputs` (a mask of Output) on `flags`; call before
  // flags->Parse(). `flags` must outlive this object.
  BenchOutputs(Flags* flags, unsigned outputs)
      : flags_(flags), outputs_(outputs) {
    for (const Spec& spec : kSpecs) {
      if ((outputs_ & spec.output) != 0) {
        const char* env =
            spec.env != nullptr ? std::getenv(spec.env) : nullptr;
        flags->DefineString(spec.flag, env != nullptr ? env : "", spec.help);
      }
    }
  }

  // After Parse(): where `output` goes, "" when disabled or not supported.
  std::string path(Output output) const {
    for (const Spec& spec : kSpecs) {
      if (spec.output == output && (outputs_ & output) != 0) {
        return flags_->GetString(spec.flag);
      }
    }
    return "";
  }
  bool enabled(Output output) const { return !path(output).empty(); }
  // Whether the run must record a causal journal: --profile_out writes it and
  // --whatif_out replays it.
  bool journaling() const { return enabled(kProfile) || enabled(kWhatIf); }

  bool WriteTrace(const TraceDocument& trace) const {
    return Logged(ChromeTraceWriter::WriteTo(path(kTrace), trace), "trace",
                  path(kTrace));
  }

  bool WriteJournal(const CausalGraph& graph) const {
    std::string error;
    const bool ok = WriteGraphToJournal(graph, path(kProfile), {}, &error);
    return Logged(ok, "profile journal", path(kProfile), error);
  }

  bool WriteWhatIf(const WhatIfReport& report) const {
    return Logged(WriteJsonFile(path(kWhatIf), WhatIfReportJson(report)),
                  "what-if report", path(kWhatIf));
  }

  // Replays `graph` under DefaultWhatIfExperiments(), prints the report on
  // stdout after a blank line, and writes it to --whatif_out. The identity
  // replay must land every request on its recorded latency — the self-check
  // that licenses the perturbed predictions.
  bool ReplayWhatIf(const CausalGraph& graph) const {
    const WhatIfReport report =
        BuildWhatIfReport(graph, DefaultWhatIfExperiments());
    DP_CHECK(report.baseline_matches_journal);
    std::cout << "\n";
    PrintWhatIfReport(report, std::cout);
    return WriteWhatIf(report);
  }

  bool WriteSelfprof(const std::string& label,
                     const std::vector<selfprof::LaneView>& lanes) const {
    return Logged(WriteJsonFile(path(kSelfprof),
                                selfprof::ReportJson(label, lanes)),
                  "selfprof report", path(kSelfprof));
  }

 private:
  struct Spec {
    Output output;
    const char* flag;
    const char* env;
    const char* help;
  };
  static constexpr Spec kSpecs[] = {
      {kTrace, "trace_out", "DEEPPLAN_TRACE",
       "write a Chrome/Perfetto trace JSON here (default: $DEEPPLAN_TRACE; "
       "empty disables tracing and the BENCH metrics snapshot)"},
      {kProfile, "profile_out", "DEEPPLAN_PROFILE",
       "write the binary causal journal here (default: $DEEPPLAN_PROFILE; "
       "empty disables profiling)"},
      {kWhatIf, "whatif_out", "DEEPPLAN_WHATIF",
       "write the what-if report JSON here (default: $DEEPPLAN_WHATIF; empty "
       "disables what-if replay)"},
      {kSelfprof, "selfprof_out", "DEEPPLAN_SELFPROF",
       "write a host self-profiling report (one wall-clock attribution lane "
       "per run) here (default: $DEEPPLAN_SELFPROF; empty disables)"},
      {kPerPointJournal, "journal_out", nullptr,
       "stream a binary causal journal per point to <journal_out>.<requests> "
       "(bounded-memory recording; adds a \"journal\" block to each point)"},
  };

  static bool Logged(bool ok, const char* what, const std::string& path,
                     const std::string& error = "") {
    if (ok) {
      std::cerr << "wrote " << what << " " << path << "\n";
    } else {
      std::cerr << "cannot write " << what << " " << path
                << (error.empty() ? "" : ": " + error) << "\n";
    }
    return ok;
  }

  const Flags* flags_;
  unsigned outputs_;
};

}  // namespace bench
}  // namespace deepplan

#endif  // BENCH_BENCH_UTIL_H_
