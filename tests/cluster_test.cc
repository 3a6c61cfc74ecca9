#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/model/zoo.h"
#include "src/serving/cluster.h"
#include "src/serving/serving_trace.h"
#include "src/workload/poisson.h"

namespace deepplan {
namespace {

ClusterOptions BaseOptions(RoutingPolicy routing, int servers) {
  ClusterOptions options;
  options.num_servers = servers;
  options.routing = routing;
  options.server.strategy = Strategy::kDeepPlanPtDha;
  options.server.slo = Millis(100);
  return options;
}

Trace SmallTrace(int instances, double rate, double seconds, std::uint64_t seed) {
  PoissonOptions w;
  w.rate_per_sec = rate;
  w.num_instances = instances;
  w.duration = Seconds(seconds);
  w.seed = seed;
  return GeneratePoissonTrace(w);
}

TEST(ClusterTest, AllRequestsServedAcrossBackends) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  Cluster cluster(topology, perf, BaseOptions(RoutingPolicy::kRoundRobin, 2));
  const int type = cluster.RegisterModelType(ModelZoo::BertBase());
  cluster.AddInstances(type, 40);
  const Trace trace = SmallTrace(40, 60, 5, 3);
  const ServingMetrics m = cluster.Run(trace);
  EXPECT_EQ(m.count(), trace.size());
  // Round robin splits work roughly evenly.
  const std::size_t a = cluster.server(0).metrics().count();
  const std::size_t b = cluster.server(1).metrics().count();
  EXPECT_EQ(a + b, trace.size());
  EXPECT_NEAR(static_cast<double>(a), static_cast<double>(b),
              static_cast<double>(trace.size()) * 0.02);
}

TEST(ClusterTest, AffinityRoutesInstanceToOneBackend) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  Cluster cluster(topology, perf, BaseOptions(RoutingPolicy::kInstanceAffinity, 2));
  const int type = cluster.RegisterModelType(ModelZoo::BertBase());
  cluster.AddInstances(type, 40);
  cluster.Run(SmallTrace(40, 60, 5, 4));
  for (int s = 0; s < 2; ++s) {
    for (const RequestRecord& r : cluster.server(s).metrics().records()) {
      EXPECT_EQ(r.instance % 2, s) << "instance routed off its affinity server";
    }
  }
}

TEST(ClusterTest, AffinityHasFewerColdStartsThanRoundRobinUnderPressure) {
  // With more instances than one back-end's memory, round-robin duplicates
  // each instance's residency across back-ends (both cache it), wasting
  // memory; affinity shards the instance set and stays warm longer.
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  auto run = [&](RoutingPolicy routing) {
    Cluster cluster(topology, perf, BaseOptions(routing, 2));
    const int type = cluster.RegisterModelType(ModelZoo::BertBase());
    // 200 instances: each back-end caches 124 — the affinity shard of 100
    // fits one back-end, but the full set round-robin routes at both exceeds
    // either's memory.
    cluster.AddInstances(type, 200);
    return cluster.Run(SmallTrace(200, 120, 10, 5)).ColdStartRate();
  };
  EXPECT_LT(run(RoutingPolicy::kInstanceAffinity),
            run(RoutingPolicy::kRoundRobin));
}

TEST(ClusterTest, TwoServersBeatOneOnTail) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  auto run = [&](int servers) {
    Cluster cluster(topology, perf,
                    BaseOptions(RoutingPolicy::kInstanceAffinity, servers));
    const int type = cluster.RegisterModelType(ModelZoo::BertBase());
    cluster.AddInstances(type, 200);
    return cluster.Run(SmallTrace(200, 120, 8, 6)).LatencyPercentileMs(99);
  };
  EXPECT_LT(run(2), run(1));
}

TEST(ClusterTest, LeastOutstandingBalancesLoad) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  Cluster cluster(topology, perf, BaseOptions(RoutingPolicy::kLeastOutstanding, 3));
  const int type = cluster.RegisterModelType(ModelZoo::BertBase());
  cluster.AddInstances(type, 60);
  const Trace trace = SmallTrace(60, 90, 5, 7);
  cluster.Run(trace);
  std::size_t total = 0;
  for (int s = 0; s < 3; ++s) {
    const std::size_t n = cluster.server(s).metrics().count();
    EXPECT_GT(n, trace.size() / 6);  // no starved back-end
    total += n;
  }
  EXPECT_EQ(total, trace.size());
}

TEST(ClusterTest, RoutingPolicyNames) {
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kRoundRobin), "RoundRobin");
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kInstanceAffinity),
               "InstanceAffinity");
  EXPECT_STREQ(RoutingPolicyName(RoutingPolicy::kLeastOutstanding),
               "LeastOutstanding");
}

TEST(ClusterTest, TraceRecordsEveryRoutingDecision) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  Cluster cluster(topology, perf, BaseOptions(RoutingPolicy::kRoundRobin, 2));
  const int type = cluster.RegisterModelType(ModelZoo::BertBase());
  cluster.AddInstances(type, 40);

  std::vector<CausalGraph> graphs(2);
  cluster.set_causal({&graphs[0], &graphs[1]});

  const Trace trace = SmallTrace(40, 60, 5, 3);
  const ServingMetrics m = cluster.Run(trace);
  EXPECT_EQ(m.count(), trace.size());
  const TraceDocument doc = ClusterTrace(cluster, std::move(graphs));

  // One instant event on the router track per request, named
  // "i<instance>->s<back-end>": per back-end they count the requests that
  // back-end served.
  std::vector<std::size_t> routed(static_cast<std::size_t>(cluster.num_servers()));
  std::size_t instants = 0;
  for (const TraceEvent& e : doc.events) {
    if (e.phase == TracePhase::kInstant && e.track == "router") {
      ++instants;
      const std::size_t arrow = e.name.find("->s");
      ASSERT_NE(arrow, std::string::npos) << e.name;
      ++routed.at(static_cast<std::size_t>(std::stoi(e.name.substr(arrow + 3))));
    }
  }
  EXPECT_EQ(instants, trace.size());
  for (int s = 0; s < cluster.num_servers(); ++s) {
    EXPECT_EQ(routed[static_cast<std::size_t>(s)], cluster.server(s).metrics().count());
  }

  // Router plus one process per back-end, all named in the export.
  EXPECT_EQ(doc.process_names.size(),
            1u + static_cast<std::size_t>(cluster.num_servers()));
  const std::string json = ChromeTraceWriter::ToJson(doc);
  EXPECT_NE(json.find("\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"server0\""), std::string::npos);
  EXPECT_NE(json.find("\"server1\""), std::string::npos);
}

}  // namespace
}  // namespace deepplan
