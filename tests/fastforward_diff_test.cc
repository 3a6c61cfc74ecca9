// Differential test for cold-start fast-forwarding (DESIGN.md §16): every
// scenario runs twice, once with fast-forwarding and once with every cold run
// event by event (Engine::set_fast_forward_for_testing(false)), and both runs
// must produce identical results, completion times and completion order.
// Randomized serving configs cover rate, instance count, model mix, eviction
// cost and strategy, including contention-dense ones, and every serving run
// fills a metrics registry whose whole snapshot is compared; randomized
// engine schedules cover bulk vs pipelined migration and transmission groups,
// and check the fabric traffic each cold run reports against the transfers
// the event-by-event fabric started; the directed cases pin the join and tie
// shapes the catch-up must get right.
// Runs that record a causal journal are fast-forwarded too, so the recorded
// variants also compare the streamed journal files and the accumulated
// graph's JSON export byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "src/check/validator.h"
#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/engine/engine.h"
#include "src/engine/strategies.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/selfprof.h"
#include "src/serving/server.h"
#include "src/serving/serving_trace.h"
#include "src/util/chrome_trace.h"
#include "src/util/rng.h"
#include "src/workload/poisson.h"

namespace deepplan {
namespace {

using selfprof::Counter;

// Uniform integer in [lo, hi].
int Pick(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
}

struct FastForwardCounts {
  std::uint64_t hits = 0;
  std::uint64_t materialized = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// What a recorded run is compared on.
enum class Journal {
  kNone,
  kStream,  // a streaming graph writing the binary journal
  kGraph,   // an accumulating graph, exported with ToJson
};

// Attaches a causal graph for `journal`, and returns the journal's bytes
// (the file, or the JSON export) after the run.
class JournalCapture {
 public:
  JournalCapture(Journal journal, const std::string& name)
      : journal_(journal),
        path_(::testing::TempDir() + "/" + name + ".dpj"),
        graph_(journal != Journal::kNone) {
    if (journal_ == Journal::kStream) {
      EXPECT_TRUE(writer_.Open(path_));
      graph_.AttachSink(&writer_);
    }
  }
  CausalGraph* graph() { return journal_ == Journal::kNone ? nullptr : &graph_; }
  // Call once the run is over, while its engine is still attached: the
  // engine emits the nodes due by then, a streaming graph retires its open
  // requests, and the journal is closed.
  std::string Finish() {
    if (journal_ == Journal::kNone) {
      return "";
    }
    graph_.FlushOpenRequests();
    if (journal_ == Journal::kGraph) {
      return graph_.ToJson();
    }
    EXPECT_TRUE(writer_.Finish());
    return ReadFile(path_);
  }

 private:
  Journal journal_;
  std::string path_;
  JournalWriter writer_;
  CausalGraph graph_;
};

// Runs `body` with a profiling lane installed and returns the fast-forward
// counters it accumulated.
FastForwardCounts CountFastForwards(const std::function<void()>& body) {
  selfprof::SelfProfiler lane;
  {
    const selfprof::InstallLane install(&lane);
    body();
  }
  return {lane.counter(Counter::kColdFastForward),
          lane.counter(Counter::kColdMaterialized)};
}

// ------------------------------------------------------------ serving level

struct ServingConfig {
  std::uint64_t seed = 1;
  Strategy strategy = Strategy::kDeepPlanPtDha;
  std::vector<Model> models;
  int instances_per_model = 8;
  double rate_per_sec = 200.0;
  Nanos duration = Seconds(2);
  Nanos eviction_cost = Micros(200);
  std::int64_t usable_bytes_per_gpu = 2'000'000'000;
};

std::string Describe(const ServingConfig& c) {
  std::string models;
  for (const Model& m : c.models) {
    models += m.name() + " ";
  }
  return "seed=" + std::to_string(c.seed) + " strategy=" +
         StrategyName(c.strategy) + " models=" + models +
         "instances/model=" + std::to_string(c.instances_per_model) +
         " rate=" + std::to_string(c.rate_per_sec) +
         " evict_ns=" + std::to_string(c.eviction_cost);
}

struct ServingRun {
  std::vector<RequestRecord> records;
  std::string journal;  // empty unless recorded
  std::string trace;    // the derived Chrome trace (accumulated graphs only)
  std::string metrics;  // the metrics registry's JSON snapshot
  FastForwardCounts counts;
};

ServingRun RunServing(const ServingConfig& c, bool fast_forward,
                      Journal journal = Journal::kNone) {
  JournalCapture capture(journal, "serving_" + std::to_string(c.seed) +
                                      (fast_forward ? "_ff" : "_ebe"));
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.strategy = c.strategy;
  options.eviction_cost = c.eviction_cost;
  options.usable_bytes_per_gpu = c.usable_bytes_per_gpu;
  Server server(topology, perf, options);
  server.set_fast_forward_for_testing(fast_forward);
  if (capture.graph() != nullptr) {
    server.set_causal(capture.graph(), capture.graph()->RegisterProcess("serve"));
  }
  MetricsRegistry registry;
  server.set_telemetry(&registry);
  for (const Model& model : c.models) {
    server.AddInstances(server.RegisterModelType(model), c.instances_per_model);
  }
  PoissonOptions poisson;
  poisson.rate_per_sec = c.rate_per_sec;
  poisson.num_instances = server.num_instances();
  poisson.duration = c.duration;
  poisson.seed = c.seed;
  const Trace trace = GeneratePoissonTrace(poisson);
  ServingRun run;
  ServingMetrics metrics;
  run.counts = CountFastForwards([&]() { metrics = server.Run(trace); });
  run.records = metrics.records();
  run.metrics = registry.ToJson();
  run.journal = capture.Finish();
  if (journal == Journal::kGraph) {
    run.trace =
        ChromeTraceWriter::ToJson(ServingTrace(*capture.graph(), {&metrics}));
  }
  return run;
}

void ExpectSameRun(const ServingRun& fast, const ServingRun& slow,
                   const std::string& what) {
  EXPECT_EQ(fast.metrics, slow.metrics) << what;
  EXPECT_EQ(slow.counts.hits, 0u) << what;
  EXPECT_TRUE(fast.journal == slow.journal) << what << ": journals differ";
  EXPECT_TRUE(fast.trace == slow.trace) << what << ": derived traces differ";
  const std::vector<RequestRecord>& a = fast.records;
  const std::vector<RequestRecord>& b = slow.records;
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].arrival, b[i].arrival) << what << " record " << i;
    ASSERT_EQ(a[i].start, b[i].start) << what << " record " << i;
    ASSERT_EQ(a[i].completion, b[i].completion) << what << " record " << i;
    ASSERT_EQ(a[i].instance, b[i].instance) << what << " record " << i;
    ASSERT_EQ(a[i].cold, b[i].cold) << what << " record " << i;
    ASSERT_EQ(a[i].evict, b[i].evict) << what << " record " << i;
    ASSERT_EQ(a[i].load, b[i].load) << what << " record " << i;
    ASSERT_EQ(a[i].evictions, b[i].evictions) << what << " record " << i;
  }
}

ServingConfig RandomServingConfig(std::uint64_t seed) {
  const std::vector<Model> zoo = {ModelZoo::BertBase(), ModelZoo::RobertaBase(),
                                  ModelZoo::Gpt2(), ModelZoo::ResNet50()};
  const std::vector<Strategy> strategies = {
      Strategy::kBaseline, Strategy::kPipeSwitch, Strategy::kDeepPlanDha,
      Strategy::kDeepPlanPt, Strategy::kDeepPlanPtDha};
  Rng rng(seed * 7919);
  ServingConfig c;
  c.seed = seed;
  c.strategy = strategies[Pick(rng, 0, static_cast<int>(strategies.size()) - 1)];
  const int num_models = Pick(rng, 1, 3);
  for (int m = 0; m < num_models; ++m) {
    c.models.push_back(zoo[static_cast<std::size_t>(
        Pick(rng, 0, static_cast<int>(zoo.size()) - 1))]);
  }
  c.instances_per_model = Pick(rng, 4, 24);
  // Every fourth config is contention-dense: a high rate against little
  // GPU memory, so cold starts overlap on the PCIe switches.
  const bool dense = seed % 4 == 0;
  c.rate_per_sec = dense ? rng.NextUniform(800.0, 1500.0) : rng.NextUniform(20.0, 400.0);
  c.usable_bytes_per_gpu = dense ? 1'200'000'000 : 2'500'000'000;
  c.duration = Millis(dense ? 600 : 1500);
  const int evict_kind = Pick(rng, 0, 2);
  c.eviction_cost = evict_kind == 0   ? 0
                    : evict_kind == 1 ? Micros(200)
                                      : Micros(Pick(rng, 1, 900));
  return c;
}

TEST(FastForwardServingDiffTest, RandomConfigsMatchEventByEvent) {
  FastForwardCounts total;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ServingConfig c = RandomServingConfig(seed);
    const ServingRun fast = RunServing(c, /*fast_forward=*/true);
    ExpectSameRun(fast, RunServing(c, /*fast_forward=*/false), Describe(c));
    // Cold starts retired, so the snapshot carries their fabric traffic.
    const bool cold = std::any_of(fast.records.begin(), fast.records.end(),
                                  [](const RequestRecord& r) { return r.cold; });
    EXPECT_EQ(fast.metrics.find("\"fabric.bytes\"") != std::string::npos, cold)
        << Describe(c);
    total.hits += fast.counts.hits;
    total.materialized += fast.counts.materialized;
  }
  // The sweep exercised both paths.
  EXPECT_GT(total.hits, 100u);
  EXPECT_GT(total.materialized, 10u);
}

// The same randomized configs, contention-dense ones included, with a causal
// journal recorded: streamed to a file, and accumulated for ToJson and the
// trace derived from it.
TEST(FastForwardServingDiffTest, RecordedConfigsMatchEventByEventJournals) {
  FastForwardCounts total;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ServingConfig c = RandomServingConfig(seed);
    for (const Journal journal : {Journal::kStream, Journal::kGraph}) {
      const ServingRun fast = RunServing(c, /*fast_forward=*/true, journal);
      ASSERT_FALSE(fast.journal.empty());
      ASSERT_EQ(fast.trace.empty(), journal == Journal::kStream);
      ExpectSameRun(fast, RunServing(c, /*fast_forward=*/false, journal),
                    Describe(c) + (journal == Journal::kStream ? " stream" : " json"));
      total.hits += fast.counts.hits;
      total.materialized += fast.counts.materialized;
    }
  }
  EXPECT_GT(total.hits, 100u);
  EXPECT_GT(total.materialized, 10u);
}

// Sparse cold starts that each evict first: the fast-forwarded runs hang
// their script off the server's evict node instead of the arrival node.
TEST(FastForwardServingDiffTest, EvictRootedRecordedColdStarts) {
  ServingConfig c;
  c.seed = 2;
  c.models = {ModelZoo::BertBase()};
  c.instances_per_model = 16;
  c.rate_per_sec = 25.0;
  c.duration = Seconds(2);
  c.usable_bytes_per_gpu = 1'200'000'000;
  c.eviction_cost = Micros(300);
  for (const Journal journal : {Journal::kStream, Journal::kGraph}) {
    const ServingRun fast = RunServing(c, /*fast_forward=*/true, journal);
    ExpectSameRun(fast, RunServing(c, /*fast_forward=*/false, journal), Describe(c));
    EXPECT_GT(fast.counts.hits, 5u);
    if (journal == Journal::kGraph) {
      EXPECT_NE(fast.journal.find("\"kind\":\"evict\""), std::string::npos);
    }
  }
}

TEST(FastForwardServingDiffTest, ValidatedBurstRunWithCatchUps) {
  // One serving sim with SimValidator on: monotone time, queue pops, stream
  // order and fabric solves are checked on the main run and, against their
  // own clock, inside every catch-up. The burst both fast-forwards and
  // materializes, and must still match the event-by-event run.
  check::SetValidationForTesting(1);
  const std::uint64_t checks_before = check::ChecksRun();
  ServingConfig c;
  c.seed = 11;
  c.models = {ModelZoo::BertBase(), ModelZoo::Gpt2()};
  c.instances_per_model = 16;
  c.rate_per_sec = 900.0;
  c.duration = Millis(400);
  c.usable_bytes_per_gpu = 1'200'000'000;
  const ServingRun fast = RunServing(c, /*fast_forward=*/true);
  const ServingRun slow = RunServing(c, /*fast_forward=*/false);
  check::SetValidationForTesting(-1);
  ExpectSameRun(fast, slow, Describe(c));
  EXPECT_GT(fast.counts.hits, 0u);
  EXPECT_GT(fast.counts.materialized, 0u);
  EXPECT_GT(check::ChecksRun(), checks_before);
}

// ------------------------------------------------------------- engine level

class FastForwardEngineDiff {
 public:
  struct Cold {
    Nanos at = 0;
    std::size_t model = 0;
    Strategy strategy = Strategy::kDeepPlanPtDha;
    GpuId primary = 0;
    MigrationMode migration = MigrationMode::kPipelined;
    int group = 1;
    bool all_dha = false;
    // Starts in the same callback as the previous run instead of its own.
    bool same_callback = false;
    // Recorded runs: hang the run off an evict node instead of the arrival.
    bool evict_root = false;
  };
  // An unrelated event at `at` that schedules another at `then`; both log
  // their firing, so their order against cold completions is pinned. In a
  // recorded run each also records a request with one node, unless silent.
  struct Marker {
    Nanos at = 0;
    Nanos then = -1;
    bool silent = false;
  };

  FastForwardEngineDiff()
      : topology_(Topology::P3_8xlarge()),
        perf_(topology_.gpu(), topology_.pcie()),
        models_({ModelZoo::BertBase(), ModelZoo::Gpt2(), ModelZoo::ResNet50()}) {}

  ExecutionPlan PlanFor(const Cold& c) const {
    const Model& model = models_[c.model];
    if (c.all_dha) {
      ExecutionPlan plan(model.name(), model.num_layers());
      for (std::size_t i = 0; i < model.num_layers(); ++i) {
        plan.set_method(i, ExecMethod::kDirectHostAccess);
      }
      return plan;
    }
    ProfilerOptions popts;
    popts.noise_stddev = 0.0;
    const ModelProfile profile = Profiler(&perf_, popts).Profile(model);
    PipelineOptions pipeline;
    pipeline.nvlink = topology_.nvlink();
    return MakeStrategyPlan(c.strategy, profile,
                            StrategyDegree(c.strategy, topology_, c.primary),
                            pipeline);
  }

  // Fabric traffic of one run: the sums of what its completed cold runs
  // report, and (event by event only) the transfers the fabric started,
  // counted by its cum/fabric.bytes counter, one sample per Start, the last
  // of which is the byte total.
  struct FabricTally {
    std::int64_t reported_transfers = 0;
    std::int64_t reported_bytes = 0;
    std::int64_t started_transfers = 0;
    std::int64_t started_bytes = 0;
  };
  // The tally of the last Run in this mode.
  const FabricTally& tally(bool fast_forward) const {
    return tallies_[fast_forward ? 1 : 0];
  }

  // The completion log of one run: "<what> <time>" per completion, in order.
  // With a capture, every cold run is a recorded request; with a horizon
  // >= 0 the run stops there. The capture's bytes land in `journal`.
  std::vector<std::string> Run(const std::vector<Cold>& colds,
                               const std::vector<Marker>& markers,
                               bool fast_forward, FastForwardCounts* counts,
                               JournalCapture* capture = nullptr,
                               Nanos horizon = -1,
                               std::string* journal = nullptr) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    engine.set_fast_forward_for_testing(fast_forward);
    FabricTally& tally = tallies_[fast_forward ? 1 : 0];
    tally = FabricTally{};
    if (!fast_forward) {
      fabric.fabric().set_counter_sink(
          [&tally](const std::string& track, std::string_view, Nanos,
                   double value) {
            if (track == "cum/fabric.bytes") {
              ++tally.started_transfers;
              tally.started_bytes = static_cast<std::int64_t>(value);
            }
          });
    }
    CausalGraph* const graph = capture != nullptr ? capture->graph() : nullptr;
    if (graph != nullptr) {
      engine.set_causal(graph);
      graph->RegisterProcess("cold");
      graph->RegisterProcess("marker");
    }
    // A marker's record: one request whose single node is its terminal.
    const auto mark = [&sim, graph](const std::string& name) {
      const int r = graph->BeginRequest(1, -1, sim.now());
      const CpNodeId n =
          graph->AddNode(r, CpKind::kExec, name, "marker", sim.now(), sim.now());
      graph->AddEdge(graph->arrival_node(r), n);
      graph->EndRequest(r, sim.now(), n);
    };
    std::vector<ExecutionPlan> plans;
    for (const Cold& c : colds) {
      plans.push_back(PlanFor(c));
    }
    std::vector<std::string> log;
    const auto start = [&](std::size_t k) {
      const Cold& c = colds[k];
      const ExecutionPlan& plan = plans[k];
      std::vector<GpuId> secondaries;
      if (plan.num_partitions() > 1) {
        secondaries = TransmissionPlanner::ChooseSecondaries(
            topology_, c.primary, plan.num_partitions());
      }
      ColdRunOptions options = MakeColdRunOptions(c.strategy);
      options.migration = c.migration;
      options.transfer_group_layers = c.group;
      int request = -1;
      if (graph != nullptr) {
        request = graph->BeginRequest(0, static_cast<int>(k), sim.now());
        graph->MarkCold(request);
        options.causal_request = request;
        if (c.evict_root) {
          options.causal_root = graph->AddNode(request, CpKind::kEvict, "evict",
                                               "gpu", sim.now(), sim.now());
          graph->AddEdge(graph->arrival_node(request), options.causal_root);
        }
      }
      engine.RunCold(models_[c.model], plan, c.primary, secondaries, options,
                     [&log, &sim, &tally, k, graph, request](const InferenceResult& r) {
                       if (graph != nullptr) {
                         graph->EndRequest(request, sim.now(), r.causal_terminal);
                       }
                       tally.reported_transfers += r.fabric_transfers;
                       tally.reported_bytes += r.fabric_bytes;
                       std::string line = "cold" + std::to_string(k) + " " +
                                          std::to_string(sim.now()) + " lat=" +
                                          std::to_string(r.latency) + " load=" +
                                          std::to_string(r.load_done) + " stall=" +
                                          std::to_string(r.stall) + " busy=" +
                                          std::to_string(r.exec_busy) + " xfers=" +
                                          std::to_string(r.fabric_transfers) + " bytes=" +
                                          std::to_string(r.fabric_bytes);
                       for (const PartitionStats& p : r.partitions) {
                         line += " p" + std::to_string(p.bytes) + "/" +
                                 std::to_string(p.pcie_start) + "/" +
                                 std::to_string(p.pcie_done) + "/" +
                                 std::to_string(p.arrival_done);
                       }
                       log.push_back(line);
                     });
    };
    for (std::size_t k = 0; k < colds.size(); ++k) {
      if (colds[k].same_callback) {
        continue;
      }
      sim.ScheduleAt(colds[k].at, [&, k]() {
        start(k);
        for (std::size_t j = k + 1; j < colds.size() && colds[j].same_callback; ++j) {
          start(j);
        }
      });
    }
    for (std::size_t m = 0; m < markers.size(); ++m) {
      const Marker mk = markers[m];
      const bool records = graph != nullptr && !mk.silent;
      sim.ScheduleAt(mk.at, [&log, &sim, mk, m, records, mark]() {
        log.push_back("marker" + std::to_string(m) + " " + std::to_string(sim.now()));
        if (records) {
          mark("marker" + std::to_string(m));
        }
        if (mk.then >= 0) {
          sim.ScheduleAt(mk.then, [&log, &sim, m, records, mark]() {
            log.push_back("then" + std::to_string(m) + " " +
                          std::to_string(sim.now()));
            if (records) {
              mark("then" + std::to_string(m));
            }
          });
        }
      });
    }
    *counts = CountFastForwards([&]() {
      if (horizon >= 0) {
        sim.RunUntil(horizon);
      } else {
        sim.Run();
      }
    });
    if (capture != nullptr) {
      *journal = capture->Finish();
    }
    return log;
  }

  // Runs both modes and expects identical logs; returns the fast-forward
  // mode's counters.
  FastForwardCounts ExpectSame(const std::vector<Cold>& colds,
                               const std::vector<Marker>& markers = {}) {
    FastForwardCounts on;
    FastForwardCounts off;
    const std::vector<std::string> fast = Run(colds, markers, true, &on);
    const std::vector<std::string> slow = Run(colds, markers, false, &off);
    EXPECT_EQ(fast, slow);
    EXPECT_EQ(fast.size(), colds.size() + CountLines(markers));
    return on;
  }

  // ExpectSame with every cold run recorded, once into an accumulating graph
  // (compared by ToJson) and once streamed to a journal file (compared byte
  // for byte); with a horizon >= 0 the runs stop there and the streaming
  // graph retires the cut requests with FlushOpenRequests. Returns the
  // fast-forward mode's counters of the accumulating run.
  FastForwardCounts ExpectSameJournal(const std::vector<Cold>& colds,
                                      const std::vector<Marker>& markers = {},
                                      Nanos horizon = -1) {
    FastForwardCounts result;
    for (const Journal journal : {Journal::kGraph, Journal::kStream}) {
      FastForwardCounts on;
      FastForwardCounts off;
      JournalCapture fast_capture(journal, "engine_ff");
      JournalCapture slow_capture(journal, "engine_ebe");
      std::string fast_journal;
      std::string slow_journal;
      const std::vector<std::string> fast =
          Run(colds, markers, true, &on, &fast_capture, horizon, &fast_journal);
      const std::vector<std::string> slow =
          Run(colds, markers, false, &off, &slow_capture, horizon, &slow_journal);
      EXPECT_EQ(fast, slow);
      if (horizon < 0) {
        EXPECT_EQ(fast.size(), colds.size() + CountLines(markers));
      }
      EXPECT_FALSE(fast_journal.empty());
      EXPECT_TRUE(fast_journal == slow_journal)
          << (journal == Journal::kStream ? "streamed" : "JSON")
          << " journals differ";
      if (journal == Journal::kGraph) {
        result = on;
      }
    }
    return result;
  }

  // End times of the causal nodes an isolated recorded run emits (its node
  // script), relative to its start, in record order.
  std::vector<Nanos> NodeEnds(const Cold& c) {
    JournalCapture capture(Journal::kGraph, "node_ends");
    FastForwardCounts counts;
    std::string json;
    Run({c}, {}, /*fast_forward=*/false, &counts, &capture, -1, &json);
    std::vector<Nanos> ends;
    for (const CpNode& node : capture.graph()->nodes()) {
      if (node.kind != CpKind::kArrival && node.kind != CpKind::kEvict) {
        ends.push_back(node.end - c.at);
      }
    }
    return ends;
  }

  // Event times of one isolated run (event by event), in firing order.
  struct Timeline {
    std::vector<Nanos> events;
    // Instants between two transfers with none in flight (a latency tail).
    std::vector<Nanos> tail_gaps;
    Nanos fabric_end = -1;
    Nanos completion = -1;
  };
  Timeline Isolated(const Cold& c) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology_);
    Engine engine(&sim, &fabric, &perf_);
    engine.set_fast_forward_for_testing(false);
    const ExecutionPlan plan = PlanFor(c);
    std::vector<GpuId> secondaries;
    if (plan.num_partitions() > 1) {
      secondaries = TransmissionPlanner::ChooseSecondaries(topology_, c.primary,
                                                           plan.num_partitions());
    }
    ColdRunOptions options = MakeColdRunOptions(c.strategy);
    options.migration = c.migration;
    options.transfer_group_layers = c.group;
    Timeline t;
    engine.RunCold(models_[c.model], plan, c.primary, secondaries, options,
                   [&](const InferenceResult& r) { t.completion = r.latency; });
    while (!sim.idle()) {
      const Nanos next = sim.event_queue().NextTime();
      t.events.push_back(next);
      sim.RunUntil(next);
      if (t.completion < 0 && fabric.fabric().active_transfers() == 0 &&
          !sim.idle() && sim.event_queue().NextTime() > next + 1) {
        t.tail_gaps.push_back(next + 1);
      }
    }
    t.fabric_end = fabric.fabric().last_departure();
    // Only gaps between transfers; the ones after the last are not joins.
    while (!t.tail_gaps.empty() && t.tail_gaps.back() > t.fabric_end) {
      t.tail_gaps.pop_back();
    }
    return t;
  }

 private:
  static std::size_t CountLines(const std::vector<Marker>& markers) {
    std::size_t n = 0;
    for (const Marker& m : markers) {
      n += m.then >= 0 ? 2 : 1;
    }
    return n;
  }

  Topology topology_;
  PerfModel perf_;
  std::vector<Model> models_;
  FabricTally tallies_[2];  // event by event, fast-forwarded
};

TEST(FastForwardEngineDiffTest, RandomSchedulesMatchEventByEvent) {
  FastForwardEngineDiff diff;
  const std::vector<Strategy> strategies = {
      Strategy::kBaseline, Strategy::kDeepPlanDha, Strategy::kDeepPlanPt,
      Strategy::kDeepPlanPtDha};
  FastForwardCounts total;
  std::int64_t fabric_starts = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<FastForwardEngineDiff::Cold> colds;
    const int n = Pick(rng, 2, 10);
    // Spacing around a cold start's length: some runs isolated, some joined.
    const Nanos span = Millis(Pick(rng, 5, 120));
    for (int k = 0; k < n; ++k) {
      FastForwardEngineDiff::Cold c;
      c.at = static_cast<Nanos>(rng.NextUniform(0.0, static_cast<double>(span)));
      c.model = static_cast<std::size_t>(Pick(rng, 0, 2));
      c.strategy = strategies[static_cast<std::size_t>(Pick(rng, 0, 3))];
      c.primary = Pick(rng, 0, 3);
      c.migration = Pick(rng, 0, 1) == 0 ? MigrationMode::kPipelined
                                               : MigrationMode::kBulk;
      c.group = Pick(rng, 0, 2) == 0 ? Pick(rng, 2, 6) : 1;
      c.all_dha = Pick(rng, 0, 9) == 0;
      if (k > 0 && Pick(rng, 0, 7) == 0) {
        c.at = colds.back().at;  // a same-ns start in its own callback
      }
      colds.push_back(c);
    }
    std::vector<FastForwardEngineDiff::Marker> markers;
    for (int m = Pick(rng, 0, 4); m > 0; --m) {
      FastForwardEngineDiff::Marker mk;
      mk.at = static_cast<Nanos>(rng.NextUniform(0.0, static_cast<double>(span)));
      mk.then = mk.at + Micros(Pick(rng, 0, 20000));
      markers.push_back(mk);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FastForwardCounts c = diff.ExpectSame(colds, markers);
    total.hits += c.hits;
    total.materialized += c.materialized;
    // Every transfer the event-by-event fabric started is reported by
    // exactly one cold run's result, in both modes.
    const FastForwardEngineDiff::FabricTally& slow = diff.tally(false);
    const FastForwardEngineDiff::FabricTally& fast = diff.tally(true);
    EXPECT_EQ(slow.reported_transfers, slow.started_transfers);
    EXPECT_EQ(slow.reported_bytes, slow.started_bytes);
    EXPECT_EQ(fast.reported_transfers, slow.started_transfers);
    EXPECT_EQ(fast.reported_bytes, slow.started_bytes);
    fabric_starts += slow.started_transfers;
  }
  EXPECT_GT(fabric_starts, 0);
  EXPECT_GT(total.hits, 20u);
  EXPECT_GT(total.materialized, 10u);
}

TEST(FastForwardEngineDiffTest, TwoColdStartsAtTheSameNanosecond) {
  FastForwardEngineDiff diff;
  // The tab04 shape: cold starts on GPUs behind one PCIe switch, at one
  // instant, in one callback and in separate callbacks.
  for (const bool same_callback : {true, false}) {
    std::vector<FastForwardEngineDiff::Cold> colds(2);
    colds[0].at = Millis(1);
    colds[0].primary = 0;
    colds[1].at = Millis(1);
    colds[1].primary = 1;
    colds[1].same_callback = same_callback;
    const FastForwardCounts c = diff.ExpectSame(colds);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.materialized, 1u);
  }
}

TEST(FastForwardEngineDiffTest, JoinAtEveryTemplateEventTimestamp) {
  FastForwardEngineDiff diff;
  FastForwardEngineDiff::Cold base;
  base.at = 0;
  base.primary = 0;
  base.model = 0;
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  ASSERT_GT(t.fabric_end, 0);
  std::size_t joins = 0;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    if (t.events[i] > t.fabric_end) {
      break;
    }
    std::vector<FastForwardEngineDiff::Cold> colds = {base, base};
    colds[1].at = t.events[i];
    colds[1].primary = 1;  // shares PCIe switch 0 with GPU 0
    // An unrelated event lands on the same instant too.
    const std::vector<FastForwardEngineDiff::Marker> markers = {
        {t.events[i], t.events[i] + Micros(50)}};
    SCOPED_TRACE("join at " + std::to_string(t.events[i]));
    const FastForwardCounts c = diff.ExpectSame(colds, markers);
    EXPECT_EQ(c.materialized, 1u);
    ++joins;
  }
  EXPECT_GT(joins, 5u);
}

TEST(FastForwardEngineDiffTest, JoinInAPcieLatencyTailGap) {
  FastForwardEngineDiff diff;
  FastForwardEngineDiff::Cold base;
  // One PCIe chain: every transfer is followed by its DMA-setup latency
  // with nothing in flight.
  base.primary = 2;
  base.model = 0;
  base.strategy = Strategy::kPipeSwitch;
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  ASSERT_GT(t.tail_gaps.size(), 3u);
  for (std::size_t i = 0; i < t.tail_gaps.size(); i += 9) {
    std::vector<FastForwardEngineDiff::Cold> colds = {base, base};
    colds[1].at = t.tail_gaps[i];
    colds[1].primary = 3;
    colds[1].model = 2;
    SCOPED_TRACE("join at " + std::to_string(t.tail_gaps[i]));
    const FastForwardCounts c = diff.ExpectSame(colds);
    EXPECT_EQ(c.materialized, 1u);
  }
}

TEST(FastForwardEngineDiffTest, JoinAfterLastTransferDoesNotMaterialize) {
  FastForwardEngineDiff diff;
  FastForwardEngineDiff::Cold base;
  base.primary = 0;
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  ASSERT_GT(t.completion, t.fabric_end + 1);
  std::vector<FastForwardEngineDiff::Cold> colds = {base, base};
  colds[1].at = t.fabric_end + 1;
  colds[1].primary = 1;
  const FastForwardCounts c = diff.ExpectSame(colds);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.materialized, 0u);
}

TEST(FastForwardEngineDiffTest, AllDhaRunNeverReservesTheFabric) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  Simulator sim;
  ServerFabric fabric(&sim, &topology);
  Engine engine(&sim, &fabric, &perf);
  const Model model = ModelZoo::Gpt2();
  ExecutionPlan plan(model.name(), model.num_layers());
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    plan.set_method(i, ExecMethod::kDirectHostAccess);
  }
  int finished = 0;
  const FastForwardCounts c = CountFastForwards([&]() {
    engine.RunCold(model, plan, 0, {}, ColdRunOptions{},
                   [&](const InferenceResult&) { ++finished; });
    EXPECT_FALSE(fabric.fabric().reserved());
    // A transfer while the run is in flight joins nothing.
    sim.ScheduleAt(Micros(10), [&]() {
      fabric.fabric().Start(fabric.HostToGpuPath(0), 1 << 20, 0,
                            [&](Nanos) { ++finished; });
    });
    sim.Run();
  });
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.materialized, 0u);

  FastForwardEngineDiff diff;
  std::vector<FastForwardEngineDiff::Cold> colds(3);
  for (std::size_t k = 0; k < colds.size(); ++k) {
    colds[k].at = Millis(2);
    colds[k].primary = static_cast<GpuId>(k);
    colds[k].model = 1;
    colds[k].all_dha = k != 2;
  }
  diff.ExpectSame(colds);
}

TEST(FastForwardEngineDiffTest, CompletionTiesKeepEventByEventOrder) {
  FastForwardEngineDiff diff;
  FastForwardEngineDiff::Cold base;
  base.model = 1;
  base.all_dha = true;
  base.at = Millis(1);
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  const Nanos done_at = base.at + t.completion;
  // Identical runs complete at one instant, and unrelated events scheduled
  // before, during and after the runs land on that instant as well.
  std::vector<FastForwardEngineDiff::Cold> colds = {base, base, base};
  colds[1].primary = 1;
  colds[2].primary = 2;
  colds[2].same_callback = true;
  const std::vector<FastForwardEngineDiff::Marker> markers = {
      {0, done_at},
      {base.at, done_at},
      {base.at + t.completion / 2, done_at},
      {done_at - 1, done_at},
      {done_at, done_at}};
  const FastForwardCounts c = diff.ExpectSame(colds, markers);
  EXPECT_EQ(c.hits, 3u);
  EXPECT_GT(c.materialized, 0u);  // the tie forces a catch-up
}

// ---------------------------------------------------- recorded engine runs

using Cold = FastForwardEngineDiff::Cold;
using Marker = FastForwardEngineDiff::Marker;

TEST(FastForwardJournalDiffTest, RandomSchedulesMatchEventByEvent) {
  FastForwardEngineDiff diff;
  const std::vector<Strategy> strategies = {
      Strategy::kBaseline, Strategy::kDeepPlanDha, Strategy::kDeepPlanPt,
      Strategy::kDeepPlanPtDha};
  FastForwardCounts total;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 31);
    std::vector<Cold> colds;
    const int n = Pick(rng, 2, 8);
    const Nanos span = Millis(Pick(rng, 5, 120));
    for (int k = 0; k < n; ++k) {
      Cold c;
      c.at = static_cast<Nanos>(rng.NextUniform(0.0, static_cast<double>(span)));
      c.model = static_cast<std::size_t>(Pick(rng, 0, 2));
      c.strategy = strategies[static_cast<std::size_t>(Pick(rng, 0, 3))];
      c.primary = Pick(rng, 0, 3);
      c.migration = Pick(rng, 0, 1) == 0 ? MigrationMode::kPipelined
                                         : MigrationMode::kBulk;
      c.group = Pick(rng, 0, 2) == 0 ? Pick(rng, 2, 6) : 1;
      c.all_dha = Pick(rng, 0, 9) == 0;
      c.evict_root = Pick(rng, 0, 3) == 0;
      if (k > 0 && Pick(rng, 0, 7) == 0) {
        c.at = colds.back().at;
      }
      colds.push_back(c);
    }
    std::vector<Marker> markers;
    for (int m = Pick(rng, 0, 6); m > 0; --m) {
      Marker mk;
      mk.at = static_cast<Nanos>(rng.NextUniform(0.0, static_cast<double>(span)));
      mk.then = mk.at + Micros(Pick(rng, 0, 20000));
      markers.push_back(mk);
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FastForwardCounts c = diff.ExpectSameJournal(colds, markers);
    total.hits += c.hits;
    total.materialized += c.materialized;
  }
  EXPECT_GT(total.hits, 20u);
  EXPECT_GT(total.materialized, 10u);
}

// Another request records a node at exactly the end of a node the fast-
// forwarded run has not emitted yet, from an event scheduled before or after
// the one that records it event by event. The tie replays the run, which
// hands back the ids of the nodes already emitted; inside the fabric
// reservation the replay's transfers stay on the real fabric.
TEST(FastForwardJournalDiffTest, NodeAtAPendingNodesEndCatchesUpReusingIds) {
  FastForwardEngineDiff diff;
  Cold base;
  base.at = Millis(1);
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  const std::vector<Nanos> ends = diff.NodeEnds(base);
  ASSERT_GT(ends.size(), 20u);
  int in_window = 0;
  int after_window = 0;
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < ends.size(); i += 13) {
    nodes.push_back(i);
  }
  nodes.push_back(ends.size() - 1);  // the last node ends at the completion
  for (const std::size_t i : nodes) {
    const Nanos at = base.at + ends[i];
    for (const Marker& marker : {Marker{at, -1}, Marker{at - 1, at}}) {
      SCOPED_TRACE("node " + std::to_string(i) + " marker at " +
                   std::to_string(marker.at));
      const FastForwardCounts c = diff.ExpectSameJournal({base}, {marker});
      EXPECT_EQ(c.hits, 1u);
      EXPECT_EQ(c.materialized, 1u);
    }
    ++(ends[i] <= t.fabric_end ? in_window : after_window);
  }
  EXPECT_GT(in_window, 2);
  EXPECT_GT(after_window, 0);
}

// A transfer joins the run's reservation after a marker's record emitted the
// first k script nodes: the catch-up reuses those k ids and records the rest.
TEST(FastForwardJournalDiffTest, TransferJoinsAfterNodesWereEmitted) {
  FastForwardEngineDiff diff;
  Cold base;
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  const std::vector<Nanos> ends = diff.NodeEnds(base);
  int joins = 0;
  for (std::size_t i = 0; i < ends.size() && ends[i] + 2 < t.fabric_end; i += 9) {
    std::vector<Cold> colds = {base, base};
    colds[1].at = ends[i] + 2;
    colds[1].primary = 1;  // shares PCIe switch 0 with GPU 0
    SCOPED_TRACE("join after node " + std::to_string(i));
    const FastForwardCounts c =
        diff.ExpectSameJournal(colds, {Marker{ends[i] + 1, -1}});
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.materialized, 1u);
    ++joins;
  }
  EXPECT_GT(joins, 3);
}

TEST(FastForwardJournalDiffTest, CompletionTieWhileRecording) {
  FastForwardEngineDiff diff;
  Cold base;
  base.model = 1;
  base.all_dha = true;
  base.at = Millis(1);
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  const Nanos done_at = base.at + t.completion;
  // Silent markers due at the completion instant: a completion tie, with
  // every node but the last emitted already.
  const std::vector<Marker> silent = {{0, done_at, true},
                                      {base.at, done_at, true},
                                      {base.at + t.completion / 2, done_at, true},
                                      {done_at - 1, done_at, true},
                                      {done_at, done_at, true}};
  FastForwardCounts c = diff.ExpectSameJournal({base}, silent);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.materialized, 1u);
  // Identical runs on three GPUs record at the same instants: only the
  // first fast-forwards, and the others' records catch it up.
  std::vector<Cold> colds = {base, base, base};
  colds[1].primary = 1;
  colds[2].primary = 2;
  colds[2].same_callback = true;
  std::vector<Marker> recorded = silent;
  for (Marker& m : recorded) {
    m.silent = false;
  }
  c = diff.ExpectSameJournal(colds, recorded);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.materialized, 1u);
}

// The second run starts after the first's transfers left the fabric, on
// another GPU, while the first still executes: both fast-forward and their
// scripts interleave by record time with each other and with the markers'.
TEST(FastForwardJournalDiffTest, TwoRecordedRunsOverlapOnDifferentGpus) {
  FastForwardEngineDiff diff;
  Cold first;
  const FastForwardEngineDiff::Timeline t = diff.Isolated(first);
  Cold second;
  second.at = t.fabric_end + 1;
  second.primary = 2;
  second.model = 2;
  ASSERT_LT(second.at, t.completion);
  std::vector<Marker> markers;
  for (Nanos at = second.at + 7; at < t.completion; at += Micros(97)) {
    markers.push_back({at, -1});
  }
  FastForwardCounts c = diff.ExpectSameJournal({first, second}, markers);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.materialized, 0u);
  // All-DHA runs never touch the fabric: three overlap from their starts.
  std::vector<Cold> dha(3);
  for (std::size_t k = 0; k < dha.size(); ++k) {
    dha[k].at = Millis(2) + Micros(333) * static_cast<Nanos>(k);
    dha[k].primary = static_cast<GpuId>(k);
    dha[k].model = 1;
    dha[k].all_dha = true;
  }
  c = diff.ExpectSameJournal(dha);
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.materialized, 0u);
}

TEST(FastForwardJournalDiffTest, EvictRootedRun) {
  FastForwardEngineDiff diff;
  Cold base;
  base.at = Millis(3);
  base.evict_root = true;
  FastForwardCounts c = diff.ExpectSameJournal({base});
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.materialized, 0u);
  // And caught up: the replay's first edge leaves the evict node.
  const std::vector<Nanos> ends = diff.NodeEnds(base);
  ASSERT_GT(ends.size(), 5u);
  c = diff.ExpectSameJournal({base}, {Marker{base.at + ends[5], -1}});
  EXPECT_EQ(c.materialized, 1u);
}

// RunUntil stops inside a recorded fast-forwarded run; FlushOpenRequests
// then retires the cut request with exactly the nodes recorded by the
// horizon (a node ending at the horizon included: RunUntil fires its
// deadline's events).
TEST(FastForwardJournalDiffTest, HorizonCutsARecordedRunThenFlush) {
  FastForwardEngineDiff diff;
  Cold base;
  base.at = Millis(1);
  const FastForwardEngineDiff::Timeline t = diff.Isolated(base);
  const std::vector<Nanos> ends = diff.NodeEnds(base);
  ASSERT_GT(ends.size(), 10u);
  for (const Nanos h : {base.at + 2, base.at + ends[3], base.at + ends[3] + 1,
                        base.at + t.fabric_end, base.at + ends.back() - 1}) {
    SCOPED_TRACE("horizon " + std::to_string(h));
    const FastForwardCounts c = diff.ExpectSameJournal({base}, {}, h);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.materialized, 0u);
  }
}

}  // namespace
}  // namespace deepplan
