// The DL inference server (Section 5.3): replays an arrival trace against a
// multi-GPU server. Each GPU runs one inference at a time (as in Clockwork);
// requests queue FIFO at their instance's home GPU. A request whose instance
// is GPU-resident runs warm; otherwise it cold-starts through the configured
// strategy (Baseline / PipeSwitch / DeepPlan DHA / PT / PT+DHA), evicting
// least-recently-used idle instances when GPU memory is short. Concurrent
// cold-starts on different GPUs contend for PCIe switch uplinks through the
// shared fabric, so parallel-transmission interference (Table 4) is modelled,
// not assumed away.
#ifndef SRC_SERVING_SERVER_H_
#define SRC_SERVING_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/strategies.h"
#include "src/obs/causal_graph.h"
#include "src/obs/metrics_registry.h"
#include "src/serving/instance.h"
#include "src/serving/metrics.h"
#include "src/workload/trace.h"

namespace deepplan {

struct ServerOptions {
  Strategy strategy = Strategy::kDeepPlanPtDha;
  int batch = 1;
  Nanos slo = Millis(100);
  // GPU memory available for model parameters (the rest holds activations,
  // workspaces, and the parallel-transmission staging area). 10.95 GB per
  // V100 reproduces the paper's instance capacities (100 PipeSwitch / 124
  // DeepPlan BERT-Base instances on 4 GPUs, Figure 13).
  std::int64_t usable_bytes_per_gpu = 10'950'000'000;
  // Fixed cost of unloading one evicted instance (stream teardown + free).
  Nanos eviction_cost = Micros(200);
  // Victim selection when GPU memory runs out (LRU in the paper).
  EvictionPolicy eviction_policy = EvictionPolicy::kLru;
  // Pre-provision instances round-robin until GPUs are full before replay.
  bool warmup = true;
  std::uint64_t profiler_seed = 42;
};

class Server {
 public:
  Server(const Topology& topology, const PerfModel& perf, ServerOptions options);
  // Shares an external simulator (cluster co-simulation): arrivals must then
  // be fed via Submit() from callbacks scheduled on that simulator, and the
  // caller drives sim->Run().
  Server(Simulator* sim, const Topology& topology, const PerfModel& perf,
         ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registers a model type: profiles it and generates the strategy's plan.
  // Returns the model-type id used by AddInstances. The optional override
  // lets different model types use different strategies on one server (e.g.
  // DHA for GPT-2 where PT adds nothing, PT+DHA for BERT).
  int RegisterModelType(Model model);
  int RegisterModelType(Model model, Strategy strategy_override);

  // Adds `count` instances of the model type, placed round-robin over GPUs.
  void AddInstances(int model_type, int count);
  // Adds one instance with an explicit home GPU (cluster routers use this to
  // keep a routing shard spread across all GPUs). Returns the instance id.
  int AddInstanceWithHome(int model_type, GpuId home);

  int num_instances() const;
  // Instances resident after warmup (the capacity line of Figure 13).
  int WarmCapacity() const;

  // Replays the trace (instance ids must be < num_instances). Returns the
  // metrics. Can be called once per Server. Only valid for servers that own
  // their simulator.
  ServingMetrics Run(const Trace& trace);

  // Co-simulation interface (external-simulator servers): pre-provision
  // instances, submit one request (call from a simulator callback at the
  // arrival time), and read the accumulated metrics.
  void Warmup();
  // Warmup restricted to a candidate set, in the given order (used by the
  // cluster router to pre-warm only the shard this back-end will serve).
  void WarmupInstances(const std::vector<int>& instances);
  void Submit(int instance);
  const ServingMetrics& metrics() const;

  // Requests queued or executing right now (for least-outstanding routing).
  int OutstandingRequests() const;

  // Attaches a metrics registry (nullptr detaches); call before
  // Warmup()/Run(). While attached, each retired request adds to the
  // counters server.requests, server.cold_starts or server.warm_hits, and
  // server.evictions, and to the server.latency_ms histogram; a retired cold
  // start that issued transfers also adds its fabric.transfers and
  // fabric.bytes. Nothing else writes the registry. Detached cost: one null
  // test per retired request. Traces are derived after the run
  // (src/serving/serving_trace.h).
  void set_telemetry(MetricsRegistry* registry);
  // The two-argument form callers such as perfbench/ use; its first slot
  // (a retired live trace recorder) takes only nullptr.
  void set_telemetry(std::nullptr_t, MetricsRegistry* registry) {
    set_telemetry(registry);
  }

  // Attaches a causal graph for critical-path profiling; call before
  // Warmup()/Run(). `process` is this server's process group in the graph.
  // Every submitted request then opens a causal request at arrival, cold
  // starts thread evict/transfer/exec nodes through the engine, and warm
  // runs record a single exec node; completion closes the request. nullptr
  // detaches; the disabled cost is one pointer test per request.
  void set_causal(CausalGraph* graph, int process = 0);

  // Test oracle: forwards to Engine::set_fast_forward_for_testing.
  void set_fast_forward_for_testing(bool on);

 private:
  struct ModelEntry;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace deepplan

#endif  // SRC_SERVING_SERVER_H_
