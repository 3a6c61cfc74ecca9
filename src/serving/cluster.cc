#include "src/serving/cluster.h"

#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin:
      return "RoundRobin";
    case RoutingPolicy::kInstanceAffinity:
      return "InstanceAffinity";
    case RoutingPolicy::kLeastOutstanding:
      return "LeastOutstanding";
  }
  return "?";
}

struct Cluster::Impl {
  ClusterOptions options;
  Simulator sim;
  std::vector<std::unique_ptr<Server>> servers;
  int num_instances = 0;
  int num_gpus_per_server = 0;
  int rr_cursor = 0;

  int Route(int instance) {
    switch (options.routing) {
      case RoutingPolicy::kRoundRobin: {
        const int pick = rr_cursor;
        rr_cursor = (rr_cursor + 1) % static_cast<int>(servers.size());
        return pick;
      }
      case RoutingPolicy::kInstanceAffinity:
        return instance % static_cast<int>(servers.size());
      case RoutingPolicy::kLeastOutstanding: {
        // Break ties with a rotating cursor so idle back-ends share work
        // instead of the lowest index absorbing every quiet-period request.
        const int n = static_cast<int>(servers.size());
        int best = rr_cursor % n;
        for (int k = 0; k < n; ++k) {
          const int i = (rr_cursor + k) % n;
          if (servers[Idx(i)]->OutstandingRequests() <
              servers[Idx(best)]->OutstandingRequests()) {
            best = i;
          }
        }
        rr_cursor = (best + 1) % n;
        return best;
      }
    }
    return 0;
  }
};

Cluster::Cluster(const Topology& topology, const PerfModel& perf,
                 ClusterOptions options)
    : impl_(std::make_unique<Impl>()) {
  DP_CHECK(options.num_servers >= 1);
  impl_->options = options;
  impl_->num_gpus_per_server = topology.num_gpus();
  for (int i = 0; i < options.num_servers; ++i) {
    impl_->servers.push_back(
        std::make_unique<Server>(&impl_->sim, topology, perf, options.server));
  }
}

Cluster::~Cluster() = default;

int Cluster::RegisterModelType(const Model& model) {
  int type = -1;
  for (auto& server : impl_->servers) {
    type = server->RegisterModelType(model);
  }
  return type;
}

void Cluster::AddInstances(int model_type, int count) {
  Impl& c = *impl_;
  const int n = static_cast<int>(c.servers.size());
  for (int i = 0; i < count; ++i) {
    const int id = c.num_instances + i;
    for (int s = 0; s < n; ++s) {
      // Home GPU per back-end: spread each back-end's *routing shard* evenly
      // over its GPUs. Under affinity, back-end s serves ids with
      // id % n == s — a stride-n id sequence folded through id % num_gpus
      // would collapse onto a subset of GPUs, so the home follows the
      // instance's rank within the shard instead.
      const int rank_in_shard = id / n;
      c.servers[Idx(s)]->AddInstanceWithHome(model_type,
                                        rank_in_shard % c.num_gpus_per_server);
    }
  }
  c.num_instances += count;
}

int Cluster::num_servers() const { return static_cast<int>(impl_->servers.size()); }
int Cluster::num_instances() const { return impl_->num_instances; }

const Server& Cluster::server(int index) const {
  DP_CHECK(index >= 0 && index < num_servers());
  return *impl_->servers[Idx(index)];
}

void Cluster::set_causal(const std::vector<CausalGraph*>& graphs) {
  Impl& c = *impl_;
  DP_CHECK(graphs.size() == c.servers.size());
  for (std::size_t i = 0; i < c.servers.size(); ++i) {
    c.servers[i]->set_causal(
        graphs[i], graphs[i]->RegisterProcess("server" + std::to_string(i)));
  }
}

ServingMetrics Cluster::Run(const Trace& trace) {
  Impl& c = *impl_;
  if (c.options.routing == RoutingPolicy::kInstanceAffinity) {
    // Pre-warm each back-end with its own shard only.
    for (int s = 0; s < static_cast<int>(c.servers.size()); ++s) {
      std::vector<int> shard;
      for (int id = s; id < c.num_instances;
           id += static_cast<int>(c.servers.size())) {
        shard.push_back(id);
      }
      c.servers[Idx(s)]->WarmupInstances(shard);
    }
  } else {
    for (auto& server : c.servers) {
      server->Warmup();
    }
  }
  for (const Arrival& a : trace.arrivals()) {
    DP_CHECK(a.instance >= 0 && a.instance < c.num_instances);
    // Captures fit std::function's local buffer: no allocation per arrival.
    c.sim.ScheduleAt(a.time, [this, instance = a.instance]() {
      Impl& impl = *impl_;
      impl.servers[Idx(impl.Route(instance))]->Submit(instance);
    });
  }
  c.sim.Run();
  ServingMetrics merged;
  for (auto& server : c.servers) {
    for (const RequestRecord& record : server->metrics().records()) {
      merged.Record(record);
    }
  }
  return merged;
}

}  // namespace deepplan
