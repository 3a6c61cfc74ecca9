#include "src/serving/server.h"

#include <algorithm>

#include "src/core/profiler.h"
#include "src/core/transmission.h"
#include "src/obs/selfprof.h"
#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

struct Server::ModelEntry {
  Model model;
  ModelProfile profile;
  ExecutionPlan plan;
  Strategy strategy = Strategy::kDeepPlanPtDha;
  std::int64_t footprint = 0;
  // Warm-path constants, cached at registration: WarmDuration and
  // WarmDhaPcieTime are pure functions of (model, plan, batch), and the batch
  // is fixed per server, so re-summing every layer on every warm hit (the
  // serving hot path) is pure waste.
  Nanos warm_duration = 0;
  Nanos warm_dha_pcie = 0;
};

struct PendingRequest {
  int instance = -1;
  Nanos arrival = 0;
  int causal = -1;  // causal-graph request id (-1 when profiling is off)
};

// One GPU's queued requests, first in first out. A vector with a moving
// head reuses its storage, where std::deque allocates and frees a chunk
// every few dozen requests.
class RequestFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  const PendingRequest& front() const { return items_[head_]; }
  void push_back(const PendingRequest& req) { items_.push_back(req); }
  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ >= items_.size()) {
      // A backlog that never drains: drop the served half, amortized O(1).
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<PendingRequest> items_;
  std::size_t head_ = 0;
};

// A warm request running on a GPU. Each GPU runs at most one request
// (gpu_busy), so one slot per GPU holds everything its completion needs.
struct WarmRun {
  PendingRequest req;
  Nanos start = 0;
};

struct Server::Impl final : InlineEventHandler {
  Topology topology;
  PerfModel perf;
  ServerOptions options;

  Simulator own_sim;
  Simulator* sim = nullptr;  // &own_sim unless an external simulator is shared
  std::unique_ptr<ServerFabric> fabric;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<InstanceManager> instances;

  std::vector<ModelEntry> models;
  std::vector<int> instance_model;  // instance id -> model type
  std::vector<RequestFifo> queues;  // per GPU
  std::vector<bool> gpu_busy;
  std::vector<WarmRun> warm_runs;  // per GPU; valid while its warm run lasts
  int next_gpu = 0;  // round-robin placement cursor
  int outstanding = 0;
  bool warmed_up = false;

  ServingMetrics metrics;

  MetricsRegistry* registry = nullptr;
  CausalGraph* causal = nullptr;
  int causal_process = 0;
  // Requests retired so far, surfaced to the simulator's DEEPPLAN_PROGRESS
  // heartbeat (registered below, removed in ~Impl).
  std::uint64_t retired = 0;

  Impl(Simulator* external_sim, const Topology& topo, const PerfModel& perf_model,
       ServerOptions opts)
      : topology(topo), perf(perf_model), options(opts) {
    sim = external_sim != nullptr ? external_sim : &own_sim;
    fabric = std::make_unique<ServerFabric>(sim, &topology);
    engine = std::make_unique<Engine>(sim, fabric.get(), &perf);
    instances = std::make_unique<InstanceManager>(
        topology.num_gpus(), options.usable_bytes_per_gpu, options.eviction_policy);
    queues.resize(Idx(topology.num_gpus()));
    gpu_busy.assign(Idx(topology.num_gpus()), false);
    warm_runs.resize(Idx(topology.num_gpus()));
    sim->AddProgressCounter(&retired);
  }

  ~Impl() {
    // An external simulator outlives this server (existing contract); for the
    // owned one, members are still alive while this body runs.
    sim->RemoveProgressCounter(&retired);
  }

  void Dispatch(GpuId gpu);
  // The warm completion on GPU `gpu` (an inline event).
  void OnInlineEvent(int gpu) override;
  // Retires a request: its record, its telemetry counters and its causal
  // terminal. `cold` is the cold run's result, nullptr for a warm request.
  void FinishRequest(GpuId gpu, const PendingRequest& req, Nanos start,
                     const InferenceResult* cold, Nanos evict_delay,
                     int num_evicted);
};

Server::Server(const Topology& topology, const PerfModel& perf, ServerOptions options)
    : impl_(std::make_unique<Impl>(nullptr, topology, perf, options)) {}

Server::Server(Simulator* sim, const Topology& topology, const PerfModel& perf,
               ServerOptions options)
    : impl_(std::make_unique<Impl>(sim, topology, perf, options)) {}

Server::~Server() = default;

int Server::RegisterModelType(Model model) {
  return RegisterModelType(std::move(model), impl_->options.strategy);
}

int Server::RegisterModelType(Model model, Strategy strategy_override) {
  Impl& s = *impl_;
  ModelEntry entry;
  entry.strategy = strategy_override;
  ProfilerOptions popts;
  popts.batch = s.options.batch;
  popts.seed = s.options.profiler_seed;
  Profiler profiler(&s.perf, popts);
  entry.profile = profiler.Profile(model);
  PipelineOptions pipeline;
  pipeline.nvlink = s.topology.nvlink();
  // Degree is topology-wide here; per-primary secondaries resolved at
  // dispatch time.
  const int degree = StrategyDegree(entry.strategy, s.topology, /*primary=*/0);
  entry.plan = MakeStrategyPlan(entry.strategy, entry.profile, degree, pipeline);
  entry.footprint = entry.plan.GpuResidentBytes(entry.profile);
  entry.model = std::move(model);
  entry.warm_duration =
      s.engine->WarmDuration(entry.model, entry.plan, s.options.batch);
  entry.warm_dha_pcie =
      s.engine->WarmDhaPcieTime(entry.model, entry.plan, s.options.batch);
  s.models.push_back(std::move(entry));
  return static_cast<int>(s.models.size() - 1);
}

void Server::AddInstances(int model_type, int count) {
  Impl& s = *impl_;
  for (int i = 0; i < count; ++i) {
    AddInstanceWithHome(model_type, s.next_gpu);
    s.next_gpu = (s.next_gpu + 1) % s.topology.num_gpus();
  }
}

int Server::AddInstanceWithHome(int model_type, GpuId home) {
  Impl& s = *impl_;
  DP_CHECK(model_type >= 0 && model_type < static_cast<int>(s.models.size()));
  const ModelEntry& entry = s.models[Idx(model_type)];
  const int id = s.instances->AddInstance(model_type, home, entry.footprint);
  s.instance_model.resize(Idx(id + 1));
  s.instance_model[Idx(id)] = model_type;
  return id;
}

int Server::num_instances() const { return impl_->instances->num_instances(); }

int Server::WarmCapacity() const { return impl_->instances->ResidentCount(); }

void Server::Impl::FinishRequest(GpuId gpu, const PendingRequest& req,
                                 Nanos start, const InferenceResult* cold,
                                 Nanos evict_delay, int num_evicted) {
  const int instance = req.instance;
  instances->SetBusy(instance, false);
  instances->MarkUsed(instance, sim->now());
  RequestRecord record;
  record.arrival = req.arrival;
  record.start = start;
  record.completion = sim->now();
  record.instance = instance;
  record.gpu = gpu;
  record.cold = cold != nullptr;
  record.evict = evict_delay;
  record.load = cold != nullptr ? cold->load_done : 0;
  record.evictions = num_evicted;
  metrics.Record(record);
  ++retired;
  if (registry != nullptr) {
    registry->AddCounter("server.requests");
    if (cold != nullptr) {
      registry->AddCounter("server.cold_starts");
      registry->AddCounter("server.evictions", num_evicted);
      // A run without transfers adds no key, as no transfer started.
      if (cold->fabric_transfers > 0) {
        registry->AddCounter("fabric.transfers", cold->fabric_transfers);
        registry->AddCounter("fabric.bytes", cold->fabric_bytes);
      }
    } else {
      registry->AddCounter("server.warm_hits");
    }
    registry->Observe("server.latency_ms", ToMillis(record.Latency()));
  }
  if (causal != nullptr && req.causal >= 0) {
    CpNodeId terminal = cold != nullptr ? cold->causal_terminal : -1;
    if (cold == nullptr) {
      // Warm requests never enter the engine's cold path; their whole DAG is
      // arrival -> one exec node.
      terminal = causal->AddNode(req.causal, CpKind::kExec,
                                 "warm i" + std::to_string(instance),
                                 "exec/gpu" + std::to_string(gpu), start,
                                 sim->now());
      // DHA plans stream parameters during warm execution too; record the
      // PCIe-bandwidth-dependent share for the what-if engine.
      const ModelEntry& entry = models[Idx(instance_model[Idx(instance)])];
      const Nanos dha_pcie = entry.warm_dha_pcie;
      if (dha_pcie > 0) {
        causal->SetNodeDhaPcie(terminal, dha_pcie);
      }
      causal->AddEdge(causal->arrival_node(req.causal), terminal);
    }
    causal->EndRequest(req.causal, sim->now(), terminal);
  }
  --outstanding;
  gpu_busy[Idx(gpu)] = false;
  Dispatch(gpu);
}

void Server::Impl::OnInlineEvent(int gpu) {
  // Copied out: finishing dispatches the GPU's next request, which may
  // overwrite the slot.
  const WarmRun run = warm_runs[Idx(gpu)];
  FinishRequest(gpu, run.req, run.start, /*cold=*/nullptr, /*evict_delay=*/0,
                /*num_evicted=*/0);
}

void Server::Impl::Dispatch(GpuId gpu) {
  if (gpu_busy[Idx(gpu)] || queues[Idx(gpu)].empty()) {
    return;
  }
  const PendingRequest req = queues[Idx(gpu)].front();
  queues[Idx(gpu)].pop_front();
  gpu_busy[Idx(gpu)] = true;

  const int instance = req.instance;
  const int type = instance_model[Idx(instance)];
  const ModelEntry& entry = models[Idx(type)];
  const Nanos start = sim->now();
  instances->SetBusy(instance, true);

  if (instances->instance(instance).resident) {
    instances->MarkUsed(instance, start);
    warm_runs[Idx(gpu)] = {req, start};
    sim->ScheduleInlineAfter(entry.warm_duration, this, gpu);
    return;
  }

  // Cold start: make room (LRU eviction), pay the eviction cost, then run the
  // strategy's provisioning + inference path.
  std::vector<int> evicted;
  const bool fits = instances->MakeResident(instance, start, &evicted);
  DP_CHECK(fits && "instance footprint exceeds GPU capacity");
  const int num_evicted = static_cast<int>(evicted.size());
  const Nanos evict_delay =
      options.eviction_cost * static_cast<Nanos>(evicted.size());
  CpNodeId causal_root = -1;
  if (causal != nullptr && req.causal >= 0) {
    causal->MarkCold(req.causal);
    causal_root = causal->arrival_node(req.causal);
    if (evict_delay > 0) {
      // Eviction spans [start, start + evict_delay] deterministically, so
      // the node can be recorded up front.
      const CpNodeId evict_node = causal->AddNode(
          req.causal, CpKind::kEvict,
          "evict x" + std::to_string(num_evicted),
          "gpu" + std::to_string(gpu), start, start + evict_delay);
      causal->AddEdge(causal_root, evict_node);
      causal_root = evict_node;
    }
  }
  sim->ScheduleAfter(evict_delay, [this, gpu, req, start, type, evict_delay,
                                   num_evicted, causal_root]() {
    const ModelEntry& cold_entry = models[Idx(type)];
    std::vector<GpuId> secondaries;
    if (cold_entry.plan.num_partitions() > 1) {
      secondaries = TransmissionPlanner::ChooseSecondaries(
          topology, gpu, cold_entry.plan.num_partitions());
    }
    ColdRunOptions cold_options =
        MakeColdRunOptions(cold_entry.strategy, options.batch);
    cold_options.causal_request = req.causal;
    cold_options.causal_root = causal_root;
    engine->RunCold(cold_entry.model, cold_entry.plan, gpu, secondaries,
                    cold_options,
                    [this, gpu, req, start, evict_delay,
                     num_evicted](const InferenceResult& result) {
                      FinishRequest(gpu, req, start, &result, evict_delay,
                                    num_evicted);
                    });
  });
}

void Server::Warmup() {
  std::vector<int> all(Idx(impl_->instances->num_instances()));
  for (int id = 0; id < static_cast<int>(all.size()); ++id) {
    all[Idx(id)] = id;
  }
  WarmupInstances(all);
}

void Server::WarmupInstances(const std::vector<int>& instances) {
  DP_SELFPROF_SCOPE(kWarmup);
  Impl& s = *impl_;
  if (s.warmed_up || !s.options.warmup) {
    s.warmed_up = true;
    return;
  }
  s.warmed_up = true;
  // Provision candidates (in the given order, round-robin homes) until GPUs
  // are full, mirroring the paper's pre-warmed steady state.
  for (const int id : instances) {
    const InstanceState& inst = s.instances->instance(id);
    if (s.instances->used_bytes(inst.home_gpu) + inst.footprint <=
        s.instances->capacity_bytes()) {
      std::vector<int> evicted;
      const bool ok = s.instances->MakeResident(id, 0, &evicted);
      DP_CHECK(ok);
      DP_CHECK(evicted.empty());
    }
  }
}

void Server::Submit(int instance) {
  Impl& s = *impl_;
  DP_CHECK(instance >= 0 && instance < s.instances->num_instances());
  const GpuId gpu = s.instances->instance(instance).home_gpu;
  ++s.outstanding;
  int causal_request = -1;
  if (s.causal != nullptr) {
    causal_request =
        s.causal->BeginRequest(s.causal_process, instance, s.sim->now());
  }
  s.queues[Idx(gpu)].push_back(
      PendingRequest{instance, s.sim->now(), causal_request});
  s.Dispatch(gpu);
}

void Server::set_telemetry(MetricsRegistry* registry) {
  impl_->registry = registry;
}

void Server::set_causal(CausalGraph* graph, int process) {
  Impl& s = *impl_;
  s.causal = graph;
  s.causal_process = process;
  s.engine->set_causal(graph);
}

void Server::set_fast_forward_for_testing(bool on) {
  impl_->engine->set_fast_forward_for_testing(on);
}

const ServingMetrics& Server::metrics() const { return impl_->metrics; }

int Server::OutstandingRequests() const { return impl_->outstanding; }

ServingMetrics Server::Run(const Trace& trace) {
  Impl& s = *impl_;
  Warmup();
  for (const Arrival& a : trace.arrivals()) {
    DP_CHECK(a.instance >= 0 && a.instance < s.instances->num_instances());
    // Captures fit std::function's local buffer: no allocation per arrival.
    s.sim->ScheduleAt(a.time, [this, instance = a.instance]() { Submit(instance); });
  }
  s.sim->Run();
  return s.metrics;
}

}  // namespace deepplan
