#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/engine/engine.h"
#include "src/engine/strategies.h"
#include "src/model/zoo.h"
#include "src/obs/causal_graph.h"
#include "src/obs/journal_stream.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/selfprof.h"
#include "src/obs/whatif/whatif.h"
#include "src/serving/server.h"
#include "src/serving/serving_trace.h"
#include "src/util/chrome_trace.h"
#include "tests/json_checker.h"

// Global allocation counter: the disabled-graph test pins the "zero cost
// when off" contract by proving dropped records never touch the heap.
namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// The nothrow variant must be replaced too: libstdc++'s temporary buffers
// (e.g. stable_sort) allocate through it, and under ASan an unreplaced
// nothrow new paired with the replaced free-based delete is flagged as an
// alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

// All global operators are replaced as a matched malloc/free set, but GCC's
// pairing analysis only sees free() applied to new-expression results.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace deepplan {
namespace {

using testutil::JsonChecker;

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, CountersAndHistograms) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("server.requests"), 0);
  reg.AddCounter("server.requests");
  reg.AddCounter("server.requests", 4);
  EXPECT_EQ(reg.counter("server.requests"), 5);

  for (int i = 1; i <= 100; ++i) {
    reg.Observe("server.latency_ms", static_cast<double>(i));
  }
  const HistogramSummary h = reg.histogram("server.latency_ms");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.mean, 50.5);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_NEAR(h.p50, 50.0, 1.1);
  EXPECT_NEAR(h.p99, 99.0, 1.1);
  EXPECT_FALSE(reg.empty());
}

// Degenerate histogram summaries are pinned: a never-observed histogram is
// all zeros, and a single observation puts that value in every field.
TEST(MetricsRegistryTest, ZeroAndOneSampleHistogramSummaries) {
  MetricsRegistry reg;
  const HistogramSummary none = reg.histogram("server.latency_ms");
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
  EXPECT_DOUBLE_EQ(none.min, 0.0);
  EXPECT_DOUBLE_EQ(none.max, 0.0);
  EXPECT_DOUBLE_EQ(none.p50, 0.0);
  EXPECT_DOUBLE_EQ(none.p95, 0.0);
  EXPECT_DOUBLE_EQ(none.p99, 0.0);

  reg.Observe("server.latency_ms", 42.0);
  const HistogramSummary one = reg.histogram("server.latency_ms");
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 42.0);
  EXPECT_DOUBLE_EQ(one.min, 42.0);
  EXPECT_DOUBLE_EQ(one.max, 42.0);
  EXPECT_DOUBLE_EQ(one.p50, 42.0);
  EXPECT_DOUBLE_EQ(one.p95, 42.0);
  EXPECT_DOUBLE_EQ(one.p99, 42.0);
  // Both shapes export as valid JSON.
  EXPECT_TRUE(JsonChecker(reg.ToJson()).Valid()) << reg.ToJson();
}

TEST(MetricsRegistryTest, JsonExportIsSortedAndValid) {
  MetricsRegistry reg;
  EXPECT_EQ(MetricsRegistry().ToJson(), "{}");  // empty sections are omitted
  reg.AddCounter("b.second");
  reg.AddCounter("a.first");
  reg.Observe("h.latency", 7.0);
  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Keys render in sorted order regardless of first-touch order.
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(reg.ToJson(), json);  // export does not perturb the registry
}

// ------------------------------------------------------- journal totals

// The streaming journal writer reports its progress exactly: what it
// flushed, and the bytes that reached the file.
TEST(JournalWriterTest, TotalsTrackTheWriterExactly) {
  const std::string path = ::testing::TempDir() + "/obs_journal.dpj";
  CausalGraph graph(/*enabled=*/true);
  JournalWriter writer;
  JournalWriterOptions small;
  small.chunk_requests = 2;
  ASSERT_TRUE(writer.Open(path, small));
  graph.AttachSink(&writer);
  const int process = graph.RegisterProcess("p");
  for (int i = 0; i < 5; ++i) {
    const int req = graph.BeginRequest(process, i, i * 10);
    const CpNodeId exec = graph.AddNode(req, CpKind::kExec, "exec",
                                        "exec/gpu0", i * 10, i * 10 + 5);
    graph.AddEdge(graph.arrival_node(req), exec);
    if (i != 4) {
      graph.EndRequest(req, i * 10 + 5, exec);
    }
  }
  graph.FlushOpenRequests();  // retires request 4 with completion -1
  ASSERT_TRUE(writer.Finish());

  JournalTotals expected;
  expected.requests = 5;
  expected.incomplete_requests = 1;
  expected.nodes = 10;  // arrival + exec per request
  expected.edges = 5;
  expected.chunks = 3;  // 2 + 2 + 1
  EXPECT_EQ(writer.totals(), expected);
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(file);
  EXPECT_EQ(writer.bytes_written(),
            static_cast<std::uint64_t>(file.tellg()));
  std::remove(path.c_str());
}

TEST(CausalGraphTest, DisabledGraphAllocatesNothing) {
  // The disabled hot path: every recorder call drops without touching the
  // heap, so journaling costs nothing when off. (Short labels stay in SSO
  // buffers; the graph must not copy them.)
  CausalGraph off(/*enabled=*/false);
  EXPECT_FALSE(off.enabled());
  const std::size_t before = g_allocations;
  const int process = off.RegisterProcess("serve");
  const int req = off.BeginRequest(process, 3, 100);
  const CpNodeId node =
      off.AddNode(req, CpKind::kPcie, "load", "pcie/gpu0", 100, 200, 64, 50);
  off.SetNodeDhaPcie(node, 0);
  off.AddEdge(off.arrival_node(req), node);
  off.MarkCold(req);
  off.EndRequest(req, 200, node);
  const std::size_t after = g_allocations;
  EXPECT_EQ(process, 0);
  EXPECT_EQ(req, -1);
  EXPECT_EQ(node, -1);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(off.empty());
}

// ---------------------------------------------------------------- end to end

// One PT+DHA cold start on the 2-GPU A5000 box, recorded in a causal graph:
// the golden path of the observability stack. The trace derived from the
// graph must be valid, Perfetto-loadable (metadata + spans + counters) and
// byte-stable.
class ColdStartTraceTest : public ::testing::Test {
 protected:
  // Runs the cold start as request 0 of `graph` and returns the trace
  // derived from the graph; the run's result lands in `out` if given.
  static TraceDocument RunOnce(
      CausalGraph* graph, InferenceResult* out = nullptr,
      ColdRunOptions options = MakeColdRunOptions(Strategy::kDeepPlanPtDha)) {
    const Topology topology = Topology::A5000Box();
    const PerfModel perf(topology.gpu(), topology.pcie());
    Simulator sim;
    ServerFabric fabric(&sim, &topology);
    Engine engine(&sim, &fabric, &perf);
    engine.set_causal(graph);
    options.causal_request =
        graph->BeginRequest(graph->RegisterProcess("PT+DHA cold start"), 0, 0);

    const Model model = ModelZoo::BertBase();
    ProfilerOptions popts;
    popts.noise_stddev = 0.0;
    const ModelProfile profile = Profiler(&perf, popts).Profile(model);
    const Strategy strategy = Strategy::kDeepPlanPtDha;
    const int degree = StrategyDegree(strategy, topology, /*primary=*/0);
    PipelineOptions pipeline;
    pipeline.nvlink = topology.nvlink();
    const ExecutionPlan plan = MakeStrategyPlan(strategy, profile, degree, pipeline);
    InferenceResult result;
    engine.RunCold(model, plan, /*primary=*/0,
                   TransmissionPlanner::ChooseSecondaries(topology, 0, degree),
                   options, [&](const InferenceResult& r) {
                     result = r;
                     graph->EndRequest(options.causal_request, sim.now(),
                                       r.causal_terminal);
                   });
    sim.Run();
    EXPECT_GT(result.latency, 0);
    if (out != nullptr) {
      *out = result;
    }
    return CausalTrace(*graph);
  }

  static std::string RunOnceJson() {
    CausalGraph graph;
    return ChromeTraceWriter::ToJson(RunOnce(&graph));
  }
};

TEST_F(ColdStartTraceTest, GoldenTwoGpuTraceIsPerfettoLoadable) {
  CausalGraph graph;
  InferenceResult result;
  const TraceDocument doc = RunOnce(&graph, &result);
  const std::string json = ChromeTraceWriter::ToJson(doc);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // Per-GPU PCIe load tracks (PT splits the model over both GPUs), the
  // primary's exec track, NVLink migration, and per-link bandwidth counters.
  EXPECT_NE(json.find("\"pcie/gpu0\""), std::string::npos);
  EXPECT_NE(json.find("\"pcie/gpu1\""), std::string::npos);
  EXPECT_NE(json.find("\"exec/gpu0\""), std::string::npos);
  EXPECT_NE(json.find("nvlink/"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("bw/"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // The run reports its PT transfers, and their bytes are what the trace's
  // cumulative fabric counter (replayed from the graph) ends at.
  EXPECT_GT(result.fabric_transfers, 0);
  EXPECT_GT(result.fabric_bytes, 0);
  double cumulative = 0.0;
  for (const TraceEvent& e : doc.events) {
    if (e.phase == TracePhase::kCounter && e.track == "cum/fabric.bytes") {
      cumulative = std::max(cumulative, e.value);
    }
  }
  EXPECT_EQ(cumulative, static_cast<double>(result.fabric_bytes));
}

TEST_F(ColdStartTraceTest, IdenticalRunsExportIdenticalBytes) {
  EXPECT_EQ(RunOnceJson(), RunOnceJson());
}

// Stitching graphs (CausalGraph::Adopt) remaps their processes past the ones
// already present, and the derived trace follows: one trace process per
// graph process, events tagged with the remapped pid.
TEST(CausalTraceTest, StitchedGraphsKeepTheirProcesses) {
  const auto one_warm_request = [](const std::string& process) {
    CausalGraph graph;
    const int req = graph.BeginRequest(graph.RegisterProcess(process), 0, 0);
    const CpNodeId exec =
        graph.AddNode(req, CpKind::kExec, "warm i0", "exec/gpu0", 0, Micros(1));
    graph.AddEdge(graph.arrival_node(req), exec);
    graph.EndRequest(req, Micros(1), exec);
    return graph;
  };
  CausalGraph merged = one_warm_request("strategyA");
  CausalGraph task = one_warm_request("strategyB");
  const TraceDocument own = CausalTrace(task);
  ASSERT_EQ(own.events.size(), 1u);
  EXPECT_EQ(own.events[0].pid, 0);  // a task graph numbers its own processes

  merged.Adopt(std::move(task));
  const TraceDocument doc = CausalTrace(merged);
  ASSERT_EQ(doc.process_names,
            (std::vector<std::string>{"strategyA", "strategyB"}));
  ASSERT_EQ(doc.events.size(), 2u);
  EXPECT_EQ(doc.events[0].pid, 0);
  EXPECT_EQ(doc.events[1].pid, 1);
  EXPECT_EQ(doc.events[1].phase, TracePhase::kSpan);
  EXPECT_EQ(doc.events[1].name, "warm i0");
  const std::string json = ChromeTraceWriter::ToJson(doc);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"strategyA\""), std::string::npos);
  EXPECT_NE(json.find("\"strategyB\""), std::string::npos);
}

// -------------------------------------------------- one record per operation

// (label, track, start, end) of one engine operation in absolute time.
using OpKey = std::tuple<std::string, std::string, Nanos, Nanos>;

// The ColdStartTraceTest run under each migration mode, pipelined and
// Baseline-gated: the derived trace's load/migrate/exec intervals and the
// causal graph's transfer/exec nodes must be the same set of operations, one
// to one, with every async id used once.
class EngineRecordingTest
    : public ColdStartTraceTest,
      public ::testing::WithParamInterface<std::tuple<MigrationMode, bool>> {};

TEST_P(EngineRecordingTest, EveryTraceIntervalMatchesOneCausalNode) {
  const auto [migration, pipelined] = GetParam();
  ColdRunOptions options = MakeColdRunOptions(Strategy::kDeepPlanPtDha);
  options.migration = migration;
  options.pipelined = pipelined;
  CausalGraph graph(/*enabled=*/true);
  const TraceDocument trace = RunOnce(&graph, nullptr, options);

  std::multiset<OpKey> nodes;
  for (const CpNode& n : graph.nodes()) {
    if (n.kind != CpKind::kArrival) {
      nodes.insert(OpKey{n.label, n.resource, n.start, n.end});
    }
  }
  std::map<std::uint64_t, TraceEvent> open;
  std::vector<OpKey> intervals;
  for (const TraceEvent& e : trace.events) {
    if (e.phase == TracePhase::kSpan) {
      intervals.push_back(OpKey{e.name, e.track, e.ts, e.ts + e.duration});
    } else if (e.phase == TracePhase::kAsyncBegin) {
      EXPECT_TRUE(open.emplace(e.id, e).second) << "reused async id " << e.id;
    } else if (e.phase == TracePhase::kAsyncEnd) {
      const auto begin = open.find(e.id);
      ASSERT_NE(begin, open.end()) << "unpaired async end " << e.name;
      EXPECT_EQ(begin->second.name, e.name);
      EXPECT_EQ(begin->second.track, e.track);
      intervals.push_back(OpKey{e.name, e.track, begin->second.ts, e.ts});
      open.erase(begin);
    }
  }
  EXPECT_TRUE(open.empty());

  std::size_t loads = 0;
  std::size_t migrations = 0;
  std::size_t execs = 0;
  for (const OpKey& op : intervals) {
    const std::string& track = std::get<1>(op);
    loads += track.rfind("pcie/", 0) == 0 ? 1 : 0;
    migrations += track.rfind("nvlink/", 0) == 0 ? 1 : 0;
    execs += track.rfind("exec/", 0) == 0 ? 1 : 0;
    const auto node = nodes.find(op);
    ASSERT_NE(node, nodes.end())
        << "trace interval without a causal node: " << std::get<0>(op) << " on "
        << track;
    nodes.erase(node);
  }
  EXPECT_GT(loads, 0u);
  EXPECT_GT(migrations, 0u);
  EXPECT_EQ(execs, ModelZoo::BertBase().num_layers());
  EXPECT_EQ(loads + migrations + execs, intervals.size());
  EXPECT_TRUE(nodes.empty())
      << nodes.size() << " causal nodes without a trace interval, e.g. "
      << std::get<0>(*nodes.begin()) << " on " << std::get<1>(*nodes.begin());
}

INSTANTIATE_TEST_SUITE_P(
    MigrationModes, EngineRecordingTest,
    ::testing::Combine(::testing::Values(MigrationMode::kPipelined,
                                         MigrationMode::kBulk),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == MigrationMode::kBulk
                             ? "Bulk"
                             : "PipelinedMigration") +
             (std::get<1>(info.param) ? "_PipelinedExec" : "_Baseline");
    });

// ---------------------------------------------------------------- goldens

// Byte-exact pins of two traces derived from recorded runs under
// tests/golden/. A mismatch writes
// the new bytes next to the test's temp files and names the first differing
// offset; copy that file over the golden only when the change is intended.
void ExpectMatchesGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(DP_TEST_GOLDEN_DIR) + "/" + name;
  std::stringstream golden;
  golden << std::ifstream(path, std::ios::binary).rdbuf();  // empty if missing
  const std::string expected = golden.str();
  if (actual == expected) {
    return;
  }
  const auto diverge = std::mismatch(expected.begin(), expected.end(),
                                     actual.begin(), actual.end());
  const std::string out = ::testing::TempDir() + "/" + name;
  std::ofstream(out, std::ios::binary) << actual;
  ADD_FAILURE() << name << " differs from " << path << " at byte "
                << (diverge.first - expected.begin()) << " (golden "
                << expected.size() << " bytes, actual " << actual.size()
                << "); actual output written to " << out;
}

TEST_F(ColdStartTraceTest, TwoGpuTraceMatchesGoldenBytes) {
  ExpectMatchesGolden("coldstart_a5000_pt_dha.trace.json", RunOnceJson());
}

// A PT+DHA server on the 4-GPU P3 box with room for one single-layer encoder
// instance per GPU: the first four requests evict and cold-start side by side
// through shared PCIe uplinks and NVLink, the last one runs warm. The trace
// is derived from the causal graph and the server's request records.
TEST(ServerTraceGoldenTest, OverlappingColdStartsMatchGoldenBytes) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.usable_bytes_per_gpu = 40'000'000;
  Server server(topology, perf, options);
  const int type = server.RegisterModelType(
      ModelZoo::TransformerEncoder("encoder_1l", 30522, 768, 1, 3072, 384));
  server.AddInstances(type, 8);
  CausalGraph graph(/*enabled=*/true);
  server.set_causal(&graph, graph.RegisterProcess("serve"));
  const ServingMetrics metrics = server.Run(Trace({{0, 4},
                                                   {0, 5},
                                                   {Micros(50), 6},
                                                   {Micros(50), 7},
                                                   {Millis(40), 4}}));
  ASSERT_EQ(metrics.count(), 5u);
  TraceDocument trace = ServingTrace(graph, {&metrics});
  // Counters hold one sample per (process, track, instant).
  std::set<std::tuple<int, std::string, Nanos>> samples;
  for (const TraceEvent& e : trace.events) {
    if (e.phase == TracePhase::kCounter) {
      EXPECT_TRUE(samples.emplace(e.pid, e.track, e.ts).second)
          << e.track << " sampled twice at " << e.ts;
    }
  }
  // The trace golden names the process "server", the causal golden "serve".
  trace.process_names[0] = "server";
  ExpectMatchesGolden("server_overlapping_cold.trace.json",
                      ChromeTraceWriter::ToJson(trace));
  ExpectMatchesGolden("server_overlapping_cold.causal.json", graph.ToJson());
}

// The same server with only the causal graph attached, so its cold starts
// fast-forward and emit their node scripts: isolated cold starts while warm
// requests on other GPUs complete, two overlapping cold starts on one PCIe
// switch, cold starts queued behind a request on their GPU, and an eviction
// before every cold start. The golden was recorded event by event.
TEST(ServerJournalGoldenTest, FastForwardedColdStartsMatchGoldenBytes) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  ServerOptions options;
  options.usable_bytes_per_gpu = 40'000'000;
  Server server(topology, perf, options);
  const int type = server.RegisterModelType(
      ModelZoo::TransformerEncoder("encoder_1l", 30522, 768, 1, 3072, 384));
  server.AddInstances(type, 8);
  CausalGraph graph(/*enabled=*/true);
  server.set_causal(&graph, graph.RegisterProcess("serve"));
  selfprof::SelfProfiler lane;
  ServingMetrics metrics;
  {
    const selfprof::InstallLane install(&lane);
    metrics = server.Run(Trace({{0, 4},
                                {Micros(700), 1},
                                {Millis(2), 2},
                                {Millis(20), 5},
                                {Millis(20) + Micros(100), 6},
                                {Millis(40), 0},
                                {Millis(40) + Micros(300), 4},
                                {Millis(60), 3},
                                {Millis(60), 7},
                                {Millis(80), 5}}));
  }
  ASSERT_EQ(metrics.count(), 10u);
  EXPECT_GT(lane.counter(selfprof::Counter::kColdFastForward), 2u);
  EXPECT_GT(lane.counter(selfprof::Counter::kColdMaterialized), 0u);
  ExpectMatchesGolden("server_journal_ff.causal.json", graph.ToJson());
}

TEST(FabricTelemetryTest, ContendedLinkEmitsChangingCounterSamples) {
  Simulator sim;
  Fabric fabric(&sim);
  // Uplink X carries both transfers; Y is B's private downstream link. The
  // per-link counter records total allocation, so the saturated uplink holds
  // steady at capacity while Y's track shows B's fair share moving as the
  // contention on X comes and goes: 6 (sharing) -> 12 (A done) -> 0 (B done).
  const LinkId x = fabric.AddLink("pcie/uplink", 12.0e9);
  const LinkId y = fabric.AddLink("pcie/gpu1", 20.0e9);
  std::vector<double> y_samples;
  std::vector<double> byte_samples;  // one per transfer start
  fabric.set_counter_sink([&y_samples, &byte_samples](
                              const std::string& track,
                              std::string_view series, Nanos, double value) {
    if (track == "cum/fabric.bytes") {
      EXPECT_EQ(series, "bytes");
      byte_samples.push_back(value);
    }
    if (track == "bw/pcie/gpu1") {
      EXPECT_EQ(series, "gbps");
      y_samples.push_back(value);
    }
  });
  fabric.Start({x}, 300'000'000, 0, [](Nanos) {});
  sim.ScheduleAt(Millis(10), [&] {
    fabric.Start({x, y}, 600'000'000, 0, [](Nanos) {});
  });
  sim.Run();
  EXPECT_EQ(byte_samples, (std::vector<double>{300'000'000, 900'000'000}));
  ASSERT_GE(y_samples.size(), 3u);
  EXPECT_DOUBLE_EQ(y_samples[0], 6.0);   // fair half of the shared uplink
  EXPECT_DOUBLE_EQ(y_samples[1], 12.0);  // A finished, B gets the full uplink
  EXPECT_DOUBLE_EQ(y_samples.back(), 0.0);
}

}  // namespace
}  // namespace deepplan
