#include <gtest/gtest.h>

#include "src/model/zoo.h"
#include "src/serving/instance.h"
#include "src/serving/metrics.h"
#include "src/serving/server.h"
#include "src/serving/serving_trace.h"
#include "src/workload/poisson.h"

namespace deepplan {
namespace {

// ---------------------------------------------------------------- instances

TEST(InstanceManagerTest, AddAndAccounting) {
  InstanceManager mgr(2, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 0, 400);
  EXPECT_EQ(mgr.num_instances(), 2);
  std::vector<int> evicted;
  EXPECT_TRUE(mgr.MakeResident(a, 1, &evicted));
  EXPECT_TRUE(mgr.MakeResident(b, 2, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(mgr.used_bytes(0), 800);
  EXPECT_EQ(mgr.ResidentCount(), 2);
}

TEST(InstanceManagerTest, EvictsLeastRecentlyUsed) {
  InstanceManager mgr(1, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 0, 400);
  const int c = mgr.AddInstance(0, 0, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(b, 2, &evicted));
  // Touch a so b becomes LRU.
  mgr.MarkUsed(a, 3);
  ASSERT_TRUE(mgr.MakeResident(c, 4, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], b);
  EXPECT_TRUE(mgr.instance(a).resident);
  EXPECT_FALSE(mgr.instance(b).resident);
}

TEST(InstanceManagerTest, BusyInstancesAreNotEvicted) {
  InstanceManager mgr(1, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 0, 400);
  const int c = mgr.AddInstance(0, 0, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(b, 2, &evicted));
  mgr.SetBusy(a, true);
  mgr.SetBusy(b, true);
  // Nothing evictable: c cannot fit.
  EXPECT_FALSE(mgr.MakeResident(c, 3, &evicted));
  mgr.SetBusy(a, false);
  EXPECT_TRUE(mgr.MakeResident(c, 4, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], a);
}

TEST(InstanceManagerTest, ResidentInstanceJustRefreshes) {
  InstanceManager mgr(1, 1000);
  const int a = mgr.AddInstance(0, 0, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(a, 5, &evicted));
  EXPECT_EQ(mgr.used_bytes(0), 400);  // not double-counted
  EXPECT_EQ(mgr.instance(a).last_used, 5);
}

TEST(InstanceManagerTest, PerGpuIsolation) {
  InstanceManager mgr(2, 500);
  const int a = mgr.AddInstance(0, 0, 400);
  const int b = mgr.AddInstance(0, 1, 400);
  std::vector<int> evicted;
  ASSERT_TRUE(mgr.MakeResident(a, 1, &evicted));
  ASSERT_TRUE(mgr.MakeResident(b, 2, &evicted));
  EXPECT_TRUE(evicted.empty());  // separate GPUs, no eviction
  EXPECT_EQ(mgr.used_bytes(0), 400);
  EXPECT_EQ(mgr.used_bytes(1), 400);
}

// ---------------------------------------------------------------- metrics

TEST(MetricsTest, PercentilesGoodputColdRate) {
  ServingMetrics m;
  for (int i = 1; i <= 100; ++i) {
    RequestRecord r;
    r.arrival = 0;
    r.start = 0;
    r.completion = Millis(i);  // latencies 1..100 ms
    r.cold = i % 4 == 0;
    m.Record(r);
  }
  EXPECT_NEAR(m.LatencyPercentileMs(99), 99.0, 1.1);
  EXPECT_NEAR(m.Goodput(Millis(50)), 0.5, 0.01);
  EXPECT_NEAR(m.ColdStartRate(), 0.25, 0.001);
  EXPECT_EQ(m.ColdStartCount(), 25u);
  EXPECT_NEAR(m.MeanLatencyMs(), 50.5, 0.01);
}

TEST(MetricsTest, PerMinuteSeries) {
  ServingMetrics m;
  for (int minute = 0; minute < 3; ++minute) {
    for (int i = 0; i < 10; ++i) {
      RequestRecord r;
      r.arrival = Seconds(60 * minute + i);
      r.start = r.arrival;
      r.completion = r.arrival + Millis(minute == 1 ? 200 : 20);
      r.cold = minute == 1;
      m.Record(r);
    }
  }
  const MinuteSeries s = m.PerMinute(Millis(100));
  ASSERT_EQ(s.requests.size(), 3u);
  EXPECT_EQ(s.requests[0], 10u);
  EXPECT_DOUBLE_EQ(s.goodput[0], 1.0);
  EXPECT_DOUBLE_EQ(s.goodput[1], 0.0);
  EXPECT_EQ(s.cold_starts[1], 10u);
  EXPECT_GT(s.p99_ms[1], s.p99_ms[0]);
}

// ---------------------------------------------------------------- server

class ServerTest : public ::testing::Test {
 protected:
  static ServerOptions BaseOptions(Strategy strategy) {
    ServerOptions options;
    options.strategy = strategy;
    options.slo = Millis(100);
    return options;
  }
};

TEST_F(ServerTest, WarmOnlyWorkloadHasNoColdStarts) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  Server server(topo, perf, BaseOptions(Strategy::kPipeSwitch));
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 8);  // fits easily: everything stays resident

  PoissonOptions w;
  w.rate_per_sec = 40;
  w.num_instances = 8;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  EXPECT_GT(m.count(), 100u);
  EXPECT_EQ(m.ColdStartCount(), 0u);
  EXPECT_NEAR(m.Goodput(Millis(100)), 1.0, 0.001);
  // Warm latency ~10 ms; p99 includes mild queueing.
  EXPECT_LT(m.LatencyPercentileMs(99), 60.0);
}

TEST_F(ServerTest, OverCapacityTriggersColdStartsAndEviction) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  ServerOptions options = BaseOptions(Strategy::kPipeSwitch);
  // Shrink GPU memory so only ~4 instances fit per GPU.
  options.usable_bytes_per_gpu = 2LL * 1024 * 1024 * 1024;
  Server server(topo, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 40);  // 10 per GPU home, only ~4 fit

  EXPECT_LT(server.WarmCapacity(), 40);
  PoissonOptions w;
  w.rate_per_sec = 60;
  w.num_instances = 40;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  EXPECT_GT(m.ColdStartCount(), 0u);
  EXPECT_GT(m.LatencyPercentileMs(99), 30.0);
}

TEST_F(ServerTest, DeepPlanInstancesHaveSmallerFootprint) {
  // Figure 13's capacity effect: DHA layers stay host-side, so more DeepPlan
  // instances fit in the same GPU memory.
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());

  Server pipeswitch(topo, perf, BaseOptions(Strategy::kPipeSwitch));
  const int t1 = pipeswitch.RegisterModelType(ModelZoo::BertBase());
  pipeswitch.AddInstances(t1, 200);

  Server deepplan(topo, perf, BaseOptions(Strategy::kDeepPlanPtDha));
  const int t2 = deepplan.RegisterModelType(ModelZoo::BertBase());
  deepplan.AddInstances(t2, 200);

  // Warmup happens inside Run; use a trivial trace.
  PoissonOptions w;
  w.rate_per_sec = 1;
  w.num_instances = 200;
  w.duration = Seconds(1);
  pipeswitch.Run(GeneratePoissonTrace(w));
  deepplan.Run(GeneratePoissonTrace(w));
  EXPECT_GT(deepplan.WarmCapacity(), pipeswitch.WarmCapacity());
  // Paper: 100 vs 124 on 4x16GB with 417 MiB models.
  EXPECT_NEAR(pipeswitch.WarmCapacity(), 100, 8);
  EXPECT_NEAR(deepplan.WarmCapacity(), 124, 10);
}

TEST_F(ServerTest, DeepPlanTailBeatsPipeSwitchUnderChurn) {
  // Over-committed concurrency: DeepPlan's cheaper cold starts and higher
  // capacity must show up as lower p99 and higher goodput.
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  auto run = [&](Strategy strategy) {
    Server server(topo, perf, BaseOptions(strategy));
    const int type = server.RegisterModelType(ModelZoo::BertBase());
    server.AddInstances(type, 140);
    PoissonOptions w;
    w.rate_per_sec = 100;
    w.num_instances = 140;
    w.duration = Seconds(10);
    w.seed = 3;
    return server.Run(GeneratePoissonTrace(w));
  };
  ServingMetrics ps = run(Strategy::kPipeSwitch);
  ServingMetrics dp = run(Strategy::kDeepPlanPtDha);
  EXPECT_LT(dp.LatencyPercentileMs(99), ps.LatencyPercentileMs(99));
  EXPECT_GE(dp.Goodput(Millis(100)), ps.Goodput(Millis(100)));
}

TEST_F(ServerTest, MixedModelTypes) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  Server server(topo, perf, BaseOptions(Strategy::kDeepPlanDha));
  const int bert = server.RegisterModelType(ModelZoo::BertBase());
  const int roberta = server.RegisterModelType(ModelZoo::RobertaBase());
  const int gpt2 = server.RegisterModelType(ModelZoo::Gpt2());
  server.AddInstances(bert, 4);
  server.AddInstances(roberta, 4);
  server.AddInstances(gpt2, 1);
  EXPECT_EQ(server.num_instances(), 9);
  PoissonOptions w;
  w.rate_per_sec = 30;
  w.num_instances = 9;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  EXPECT_GT(m.count(), 50u);
  EXPECT_GT(m.Goodput(Millis(100)), 0.9);
}

// ---------------------------------------------------------------- telemetry

TEST_F(ServerTest, TelemetryCountersMatchServingMetrics) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  ServerOptions options = BaseOptions(Strategy::kDeepPlanPtDha);
  options.usable_bytes_per_gpu = 2LL * 1024 * 1024 * 1024;  // force churn
  Server server(topo, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 40);

  MetricsRegistry registry;
  server.set_telemetry(&registry);
  CausalGraph graph;
  server.set_causal(&graph, graph.RegisterProcess("server"));

  PoissonOptions w;
  w.rate_per_sec = 60;
  w.num_instances = 40;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  ASSERT_GT(m.ColdStartCount(), 0u);
  ASSERT_GT(m.EvictionCount(), 0u);

  // The registry's counters are the live view of what ServingMetrics records.
  EXPECT_EQ(registry.counter("server.requests"),
            static_cast<std::int64_t>(m.count()));
  EXPECT_EQ(registry.counter("server.cold_starts"),
            static_cast<std::int64_t>(m.ColdStartCount()));
  EXPECT_EQ(registry.counter("server.evictions"),
            static_cast<std::int64_t>(m.EvictionCount()));
  EXPECT_EQ(registry.counter("server.warm_hits"),
            static_cast<std::int64_t>(m.count() - m.ColdStartCount()));
  EXPECT_EQ(registry.histogram("server.latency_ms").count, m.count());

  // The derived trace shows the cold-start phase decomposition, queue depths
  // and the fabric's bandwidth.
  const std::string json = ChromeTraceWriter::ToJson(ServingTrace(graph, {&m}));
  EXPECT_NE(json.find("coldstart/gpu"), std::string::npos);
  EXPECT_NE(json.find("\"transfer i"), std::string::npos);
  EXPECT_NE(json.find("queue/gpu"), std::string::npos);
  EXPECT_NE(json.find("bw/"), std::string::npos);
}

// The registry is written at retirement only: mid-run it holds nothing for
// the requests still in flight, and each cold start's fabric traffic lands
// with its request.
TEST_F(ServerTest, TelemetryCountsOnlyRetiredRequests) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  Simulator sim;
  ServerOptions options = BaseOptions(Strategy::kPipeSwitch);
  options.warmup = false;  // every first request cold-starts
  Server server(&sim, topo, perf, options);
  server.AddInstances(server.RegisterModelType(ModelZoo::BertBase()), 4);
  MetricsRegistry registry;
  server.set_telemetry(&registry);
  server.Warmup();
  sim.ScheduleAt(0, [&server] {
    for (int instance = 0; instance < 4; ++instance) {
      server.Submit(instance);  // one per GPU
    }
  });
  sim.RunUntil(Millis(1));
  EXPECT_EQ(server.OutstandingRequests(), 4);
  EXPECT_TRUE(registry.empty()) << registry.ToJson();

  sim.Run();
  ASSERT_EQ(server.metrics().ColdStartCount(), 4u);
  EXPECT_EQ(registry.counter("server.requests"), 4);
  EXPECT_EQ(registry.counter("server.cold_starts"), 4);
  EXPECT_GT(registry.counter("fabric.transfers"), 0);
  // PipeSwitch loads the whole model over PCIe, one partition.
  EXPECT_EQ(registry.counter("fabric.bytes"),
            4 * ModelZoo::BertBase().total_param_bytes());
  EXPECT_EQ(registry.ToJson().find("gauges"), std::string::npos);
}

TEST_F(ServerTest, LatencyBreakdownComponentsTileTotal) {
  const Topology topo = Topology::P3_8xlarge();
  const PerfModel perf(topo.gpu(), topo.pcie());
  ServerOptions options = BaseOptions(Strategy::kDeepPlanPtDha);
  options.usable_bytes_per_gpu = 2LL * 1024 * 1024 * 1024;
  Server server(topo, perf, options);
  const int type = server.RegisterModelType(ModelZoo::BertBase());
  server.AddInstances(type, 40);
  PoissonOptions w;
  w.rate_per_sec = 60;
  w.num_instances = 40;
  w.duration = Seconds(5);
  const ServingMetrics m = server.Run(GeneratePoissonTrace(w));
  ASSERT_GT(m.ColdStartCount(), 0u);
  const LatencyBreakdown b = m.Breakdown();
  // The decomposition is additive per request, so it is additive in the mean.
  EXPECT_NEAR(b.mean_queue_ms + b.mean_cold_ms + b.mean_exec_ms, b.mean_total_ms,
              1e-6);
  EXPECT_GT(b.mean_cold_ms, 0.0);
  EXPECT_GT(b.mean_exec_ms, 0.0);
  EXPECT_GE(b.p99_total_ms, b.p99_exec_ms);
}

}  // namespace
}  // namespace deepplan
