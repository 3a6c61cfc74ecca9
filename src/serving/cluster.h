// Multi-server cluster with a front-end router: the deployment the paper's
// introduction motivates ("a promising way to reduce the cost of GPU servers
// is to allow the number of models to extend beyond the GPU memory limit,
// leading to fewer GPU servers"). Each back-end is a full Server (its own
// GPUs, fabric, instance cache) co-simulated on one shared clock; the router
// picks a back-end per request. Because each back-end caches instances
// independently, routing policy directly shapes the cold-start rate.
#ifndef SRC_SERVING_CLUSTER_H_
#define SRC_SERVING_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/serving/server.h"

namespace deepplan {

enum class RoutingPolicy {
  kRoundRobin,        // rotate over back-ends per request
  kInstanceAffinity,  // instance id hashes to a fixed back-end (cache-friendly)
  kLeastOutstanding,  // back-end with the fewest in-flight requests
};

const char* RoutingPolicyName(RoutingPolicy policy);

struct ClusterOptions {
  int num_servers = 2;
  RoutingPolicy routing = RoutingPolicy::kInstanceAffinity;
  ServerOptions server;
};

class Cluster {
 public:
  Cluster(const Topology& topology, const PerfModel& perf, ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Registers the model type on every back-end. Returns the model-type id.
  int RegisterModelType(const Model& model);

  // Declares `count` cluster-wide instances of the type. Every back-end knows
  // every instance (it may be routed anywhere); residency is per back-end.
  void AddInstances(int model_type, int count);

  int num_servers() const;
  int num_instances() const;

  // Replays the trace through the router on the shared clock; returns merged
  // metrics. Per-server metrics remain accessible via server(i).metrics().
  ServingMetrics Run(const Trace& trace);

  const Server& server(int index) const;

  // Attaches one causal graph per back-end before Run(): graphs[i] records
  // server(i) as its process "server<i>" (a graph takes one engine, so the
  // back-ends cannot share one). ClusterTrace (src/serving/serving_trace.h)
  // derives the cluster's trace from them after the run.
  void set_causal(const std::vector<CausalGraph*>& graphs);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace deepplan

#endif  // SRC_SERVING_CLUSTER_H_
