#include "src/engine/engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/obs/selfprof.h"
#include "src/sim/stream.h"
#include "src/util/arena.h"
#include "src/util/index.h"
#include "src/util/logging.h"

namespace deepplan {

ServerFabric::ServerFabric(Simulator* sim, const Topology* topology)
    : sim_(sim), topology_(topology), fabric_(sim) {
  DP_CHECK(topology != nullptr);
  for (int s = 0; s < topology_->num_switches(); ++s) {
    uplink_of_switch_.push_back(
        fabric_.AddLink("uplink/sw" + std::to_string(s), topology_->switch_uplink_bw()));
  }
  for (GpuId g = 0; g < topology_->num_gpus(); ++g) {
    pcie_of_gpu_.push_back(fabric_.AddLink(
        "pcie/gpu" + std::to_string(g), topology_->pcie().effective_bw_bytes_per_sec));
  }
  const int n = topology_->num_gpus();
  nvlink_.assign(Idx(n), std::vector<LinkId>(Idx(n), -1));
  for (GpuId a = 0; a < n; ++a) {
    for (GpuId b = 0; b < n; ++b) {
      if (a != b && topology_->HasNvlink(a, b)) {
        nvlink_[Idx(a)][Idx(b)] =
            fabric_.AddLink("nvlink/" + std::to_string(a) + "-" + std::to_string(b),
                            topology_->nvlink().bw_bytes_per_sec);
      }
    }
  }
}

std::vector<LinkId> ServerFabric::HostToGpuPath(GpuId gpu) const {
  DP_CHECK(gpu >= 0 && gpu < topology_->num_gpus());
  return {uplink_of_switch_[Idx(topology_->switch_of(gpu))], pcie_of_gpu_[Idx(gpu)]};
}

std::vector<LinkId> ServerFabric::GpuToGpuPath(GpuId from, GpuId to) const {
  DP_CHECK(from >= 0 && from < topology_->num_gpus());
  DP_CHECK(to >= 0 && to < topology_->num_gpus());
  const LinkId link = nvlink_[Idx(from)][Idx(to)];
  DP_CHECK(link >= 0 && "no NVLink between GPUs");
  return {link};
}

LinkId ServerFabric::pcie_link(GpuId gpu) const {
  DP_CHECK(gpu >= 0 && gpu < topology_->num_gpus());
  return pcie_of_gpu_[Idx(gpu)];
}

std::vector<CpHop> ServerFabric::CausalHops(const std::vector<LinkId>& path) const {
  std::vector<CpHop> hops;
  hops.reserve(path.size());
  for (const LinkId l : path) {
    hops.push_back(CpHop{fabric_.link_name(l), fabric_.link_capacity(l)});
  }
  return hops;
}

namespace engine_internal {

// One transfer unit on a PCIe/NVLink chain: one layer, or several
// consecutive layers coalesced into a transmission group (PipeSwitch-style
// grouping amortizes per-copy overhead at the cost of coarser pipelining).
struct LoadItem {
  std::vector<std::size_t> layer_indices;
  std::int64_t bytes = 0;
  // Label for the trace recorder and causal graph; left empty (not built)
  // when neither records this run, which is the serving hot path.
  std::string name;
};

// All mutable state of one in-flight cold run. Runs are pooled: the engine
// recycles a retired run's record — sync events, streams, per-partition item
// lists — so a million-cold-start replay reuses the same buffers instead of
// allocating hundreds of heap objects per run. The record stays owned by the
// pool for the engine's lifetime, so the raw pointers captured by in-flight
// closures can never dangle.
struct ColdRun {
  Nanos start = 0;
  InferenceResult result;
  std::vector<SyncEvent> arrived;       // per layer, primary GPU
  std::vector<SyncEvent> at_secondary;  // per layer, secondary GPU
  SyncEvent all_loaded;                 // Baseline gate
  Stream exec;
  std::vector<Stream> migration;  // per partition (index 0 unused)
  std::vector<std::vector<LoadItem>> part_items;
  int pending_arrivals = 0;
  // Causal-graph cursors (only populated when the run records profiling
  // nodes): chains thread happens-before edges through these.
  int causal_request = -1;
  CpNodeId causal_root = -1;
  std::vector<CpNodeId> layer_source;      // node that delivered each layer
  std::vector<CpNodeId> secondary_source;  // PCIe node per layer (partitions>0)
  std::vector<CpNodeId> pcie_prev;         // per-partition PCIe chain cursor
  std::vector<CpNodeId> mig_prev;          // per-partition migration cursor
  CpNodeId last_exec = -1;
  CpNodeId all_loaded_source = -1;  // node whose arrival fired all_loaded
};

}  // namespace engine_internal

using engine_internal::ColdRun;
using engine_internal::LoadItem;

// Pool of reusable ColdRun records plus the deferred-release list. A run
// cannot be released the moment its completion callback fires: the execute
// stream's op machinery still runs (on the run's own Stream member) after the
// marker returns, and the callback may synchronously start another inference.
// Retired runs are instead recycled at the next RunCold, which always begins
// from a fresh event dispatch, by which point every prior run is quiescent.
struct EngineScratch {
  ObjectPool<ColdRun> pool;
  std::vector<ColdRun*> retired;
};

Engine::Engine(Simulator* sim, ServerFabric* fabric, const PerfModel* perf)
    : sim_(sim), fabric_(fabric), perf_(perf),
      scratch_(std::make_unique<EngineScratch>()) {
  DP_CHECK(sim != nullptr && fabric != nullptr && perf != nullptr);
}

Engine::~Engine() = default;

void Engine::set_telemetry(TraceRecorder* recorder, int pid) {
  recorder_ = recorder;
  pid_ = pid;
}

CpNodeId Engine::RecordOp(int causal_request, CpKind kind, std::string_view verb,
                          std::string_view name, GpuId from, GpuId to,
                          Nanos start, std::int64_t bytes, Nanos dha_pcie) {
  if (recorder_ == nullptr && causal_request < 0) {
    return -1;
  }
  const Nanos end = sim_->now();
  std::string label;
  label.reserve(verb.size() + name.size());
  label.append(verb).append(name);
  std::string track =
      kind == CpKind::kPcie     ? "pcie/gpu" + std::to_string(to)
      : kind == CpKind::kNvlink ? "nvlink/" + std::to_string(from) + "->" + std::to_string(to)
                                : "exec/gpu" + std::to_string(to);
  if (recorder_ != nullptr) {
    if (kind == CpKind::kExec) {
      recorder_->Span(pid_, track, label, start, end - start);
    } else {
      // Async interval, not a complete slice: another run's transfers may be
      // draining through the same link at the same time.
      const std::uint64_t aid = next_async_id_++;
      recorder_->AsyncBegin(pid_, track, label, aid, start);
      recorder_->AsyncEnd(pid_, track, label, aid, end);
    }
  }
  if (causal_request < 0) {
    return -1;
  }
  if (kind == CpKind::kExec) {
    const CpNodeId node = causal_->AddNode(causal_request, kind, std::move(label),
                                           std::move(track), start, end);
    if (dha_pcie > 0) {
      causal_->SetNodeDhaPcie(node, dha_pcie);
    }
    return node;
  }
  const bool pcie = kind == CpKind::kPcie;
  const std::vector<LinkId> path =
      pcie ? fabric_->HostToGpuPath(to) : fabric_->GpuToGpuPath(from, to);
  const Nanos setup = pcie ? perf_->calibration().pcie_transfer_overhead
                           : fabric_->topology().nvlink().transfer_latency;
  const CpNodeId node = causal_->AddNode(
      causal_request, kind, std::move(label), std::move(track), start, end, bytes,
      fabric_->fabric().SoloDuration(path, bytes, setup));
  causal_->SetNodePath(node, fabric_->CausalHops(path));
  return node;
}

void Engine::RunCold(const Model& model, const ExecutionPlan& plan, GpuId primary,
                     std::vector<GpuId> secondaries, const ColdRunOptions& options,
                     std::function<void(InferenceResult)> done) {
  // Times the synchronous DAG construction (per-layer op enqueues); the ops
  // themselves execute later under sim.dispatch / exec.stream.
  DP_SELFPROF_SCOPE(kColdStart);
  const std::size_t n = model.num_layers();
  DP_CHECK(plan.num_layers() == n);
  DP_CHECK(static_cast<int>(secondaries.size()) >= plan.num_partitions() - 1);

  // Recycle runs that retired since the last call (see EngineScratch).
  for (ColdRun* r : scratch_->retired) {
    scratch_->pool.Release(r);
  }
  scratch_->retired.clear();

  ColdRun* run = scratch_->pool.Acquire();
  const std::size_t parts = Idx(plan.num_partitions());
  run->start = sim_->now();
  run->result.latency = 0;
  run->result.exec_busy = 0;
  run->result.stall = 0;
  run->result.load_done = 0;
  run->result.cold = true;
  run->result.partitions.clear();
  run->result.partitions.resize(parts);
  run->result.causal_terminal = -1;
  if (run->arrived.size() < n) {
    run->arrived.resize(n);
    run->at_secondary.resize(n);
  }
  run->all_loaded.Reset(sim_);
  run->exec.Reset(sim_, "exec/gpu" + std::to_string(primary));
  if (run->migration.size() < parts) {
    run->migration.resize(parts);
  }
  for (auto& items : run->part_items) {
    items.clear();
  }
  if (run->part_items.size() < parts) {
    run->part_items.resize(parts);
  }
  run->pending_arrivals = 0;
  run->causal_request = -1;
  run->causal_root = -1;
  run->last_exec = -1;
  run->all_loaded_source = -1;

  // Causal profiling is per-run: active only when a graph is attached AND
  // this run was given a request to hang its nodes off.
  if (causal_ != nullptr && causal_->enabled() && options.causal_request >= 0) {
    run->causal_request = options.causal_request;
    run->causal_root = options.causal_root >= 0
                           ? options.causal_root
                           : causal_->arrival_node(options.causal_request);
    run->layer_source.assign(n, -1);
    run->secondary_source.assign(n, -1);
    run->pcie_prev.assign(parts, run->causal_root);
    run->mig_prev.assign(parts, run->causal_root);
    run->last_exec = run->causal_root;
    run->all_loaded_source = run->causal_root;
  }

  // Operation labels are consumed only by the trace recorder and the causal
  // graph; skip the string building entirely when neither records this run
  // (the serving hot path).
  const bool want_names = recorder_ != nullptr || run->causal_request >= 0;

  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = model.layer(i);
    if (plan.method(i) == ExecMethod::kLoad && layer.has_params()) {
      const int p = plan.partition(i);
      auto& items = run->part_items[Idx(p)];
      const int group = options.transfer_group_layers;
      if (!items.empty() &&
          static_cast<int>(items.back().layer_indices.size()) < group) {
        items.back().layer_indices.push_back(i);
        items.back().bytes += layer.param_bytes;
        if (want_names) {
          items.back().name += "+" + layer.name;
        }
      } else {
        items.push_back(LoadItem{
            {i}, layer.param_bytes, want_names ? layer.name : std::string()});
      }
      run->arrived[i].Reset(sim_);
      run->at_secondary[i].Reset(sim_);
      ++run->pending_arrivals;
      run->result.partitions[Idx(p)].bytes += layer.param_bytes;
    }
  }
  if (run->pending_arrivals == 0) {
    run->all_loaded.Fire();
  }

  auto on_arrival = [this, run](std::size_t layer_index, int partition) {
    run->arrived[layer_index].Fire();
    auto& ps = run->result.partitions[Idx(partition)];
    ps.arrival_done = std::max(ps.arrival_done, sim_->now() - run->start);
    run->result.load_done = std::max(run->result.load_done, sim_->now() - run->start);
    if (--run->pending_arrivals == 0) {
      if (run->causal_request >= 0) {
        // The node that delivered the last layer is what a non-pipelined
        // Baseline's gated exec ops causally wait on.
        run->all_loaded_source = run->layer_source[layer_index];
      }
      run->all_loaded.Fire();
    }
  };

  // PCIe load chains: one sequential chain per partition, each through its
  // own GPU's PCIe lane (primary for partition 0, secondaries for the rest).
  // The per-transfer DMA-setup overhead is the fabric latency term, so it
  // serializes into the chain exactly as back-to-back cudaMemcpyAsync calls.
  for (int p = 0; p < plan.num_partitions(); ++p) {
    if (run->part_items[Idx(p)].empty()) {
      continue;
    }
    const GpuId target = p == 0 ? primary : secondaries[Idx(p - 1)];
    run->result.partitions[Idx(p)].pcie_start = 0;
    // The stored closure must hold only a weak reference to itself: a strong
    // self-capture is a shared_ptr cycle that leaks the closure. Each
    // in-flight fabric completion re-locks a strong reference, so the chain
    // stays alive exactly until it drains.
    auto chain = std::make_shared<std::function<void(std::size_t)>>();
    std::weak_ptr<std::function<void(std::size_t)>> weak_chain = chain;
    *chain = [this, run, p, target, weak_chain, on_arrival](std::size_t k) {
      const auto& items = run->part_items[Idx(p)];
      if (k >= items.size()) {
        return;
      }
      auto self = weak_chain.lock();
      DP_CHECK(self != nullptr);  // the caller holds a strong reference
      const Nanos op_start = sim_->now();
      fabric_->fabric().Start(
          fabric_->HostToGpuPath(target), items[k].bytes,
          perf_->calibration().pcie_transfer_overhead,
          [this, run, p, k, self, on_arrival, target, op_start](Nanos) {
            run->result.partitions[Idx(p)].pcie_done = sim_->now() - run->start;
            const LoadItem& item = run->part_items[Idx(p)][k];
            const CpNodeId node =
                RecordOp(run->causal_request, CpKind::kPcie, "load ", item.name,
                         target, target, op_start, item.bytes);
            if (run->causal_request >= 0) {
              causal_->AddEdge(run->pcie_prev[Idx(p)], node);
              run->pcie_prev[Idx(p)] = node;
              for (const std::size_t li : item.layer_indices) {
                (p == 0 ? run->layer_source : run->secondary_source)[li] = node;
              }
            }
            for (const std::size_t li : item.layer_indices) {
              if (p == 0) {
                on_arrival(li, p);
              } else {
                run->at_secondary[li].Fire();
              }
            }
            (*self)(k + 1);
          });
    };
    (*chain)(0);
  }

  // NVLink migration: forward partitions > 0 from their secondary GPU to the
  // primary, either per layer (parallel-pipeline) or as one bulk transfer.
  const Nanos nvlink_latency = fabric_->topology().nvlink().transfer_latency;
  for (int p = 1; p < plan.num_partitions(); ++p) {
    if (run->part_items[Idx(p)].empty()) {
      continue;
    }
    run->migration[Idx(p)].Reset(sim_, "migrate/p" + std::to_string(p));
    Stream* mig = &run->migration[Idx(p)];
    const GpuId src = secondaries[Idx(p - 1)];
    if (options.migration == MigrationMode::kPipelined) {
      // Closures reference items by (partition, index): part_items is fully
      // built before any chain starts and never mutated during the run, so
      // indices stay valid and nothing copies the item's label or layer list.
      const std::size_t num_items = run->part_items[Idx(p)].size();
      for (std::size_t k = 0; k < num_items; ++k) {
        for (const std::size_t li : run->part_items[Idx(p)][k].layer_indices) {
          mig->EnqueueWait(&run->at_secondary[li]);
        }
        mig->Enqueue([this, run, p, k, src, primary, nvlink_latency,
                      on_arrival](std::function<void()> op_done) {
          const Nanos op_start = sim_->now();
          fabric_->fabric().Start(
              fabric_->GpuToGpuPath(src, primary), run->part_items[Idx(p)][k].bytes,
              nvlink_latency,
              [this, run, p, k, src, primary, op_start, on_arrival,
               op_done = std::move(op_done)](Nanos) {
                const LoadItem& item = run->part_items[Idx(p)][k];
                const CpNodeId node =
                    RecordOp(run->causal_request, CpKind::kNvlink, "migrate ",
                             item.name, src, primary, op_start, item.bytes);
                if (run->causal_request >= 0) {
                  causal_->AddEdge(run->mig_prev[Idx(p)], node);
                  // The migration waited on this item's PCIe delivery to the
                  // secondary GPU (one PCIe node covers the whole item).
                  causal_->AddEdge(
                      run->secondary_source[item.layer_indices.front()], node);
                  run->mig_prev[Idx(p)] = node;
                  for (const std::size_t li : item.layer_indices) {
                    run->layer_source[li] = node;
                  }
                }
                for (const std::size_t li : item.layer_indices) {
                  on_arrival(li, p);
                }
                op_done();
              });
        });
      }
    } else {
      std::int64_t bytes = 0;
      for (const LoadItem& item : run->part_items[Idx(p)]) {
        for (const std::size_t li : item.layer_indices) {
          mig->EnqueueWait(&run->at_secondary[li]);
        }
        bytes += item.bytes;
      }
      std::string name = want_names ? "bulk p" + std::to_string(p) : std::string();
      mig->Enqueue([this, run, p, src, primary, bytes, nvlink_latency, on_arrival,
                    name = std::move(name)](std::function<void()> op_done) {
        const Nanos op_start = sim_->now();
        fabric_->fabric().Start(
            fabric_->GpuToGpuPath(src, primary), bytes, nvlink_latency,
            [this, run, p, src, primary, bytes, op_start, on_arrival, name,
             op_done = std::move(op_done)](Nanos) {
              const CpNodeId node = RecordOp(run->causal_request, CpKind::kNvlink,
                                             "migrate ", name, src, primary,
                                             op_start, bytes);
              if (run->causal_request >= 0) {
                causal_->AddEdge(run->mig_prev[Idx(p)], node);
                for (const LoadItem& item : run->part_items[Idx(p)]) {
                  causal_->AddEdge(
                      run->secondary_source[item.layer_indices.front()], node);
                }
                run->mig_prev[Idx(p)] = node;
                for (const LoadItem& item : run->part_items[Idx(p)]) {
                  for (const std::size_t li : item.layer_indices) {
                    run->layer_source[li] = node;
                  }
                }
              }
              for (const LoadItem& item : run->part_items[Idx(p)]) {
                for (const std::size_t li : item.layer_indices) {
                  on_arrival(li, p);
                }
              }
              op_done();
            });
      });
    }
  }

  // Execute stream on the primary GPU, gated on per-layer arrival events
  // (or on the all-loaded event for the non-pipelined Baseline).
  for (std::size_t i = 0; i < n; ++i) {
    const Layer& layer = model.layer(i);
    const bool loads = plan.method(i) == ExecMethod::kLoad && layer.has_params();
    if (loads) {
      run->exec.EnqueueWait(options.pipelined ? &run->arrived[i]
                                              : &run->all_loaded);
    }
    const bool dha = plan.method(i) == ExecMethod::kDirectHostAccess;
    const Nanos exec = dha ? perf_->ExecDha(layer, options.batch)
                           : perf_->ExecInMemory(layer, options.batch);
    if (want_names) {
      const bool pipelined = options.pipelined;
      const Nanos dha_pcie = dha ? perf_->DhaPcieTime(layer, options.batch) : 0;
      run->exec.Enqueue([this, run, exec, dha, dha_pcie, primary, i, loads,
                         pipelined,
                         name = layer.name](std::function<void()> op_done) {
        const Nanos op_start = sim_->now();
        sim_->ScheduleAfter(exec, [this, run, op_start, dha, dha_pcie, primary, i,
                                   loads, pipelined, name,
                                   op_done = std::move(op_done)]() {
          const CpNodeId node =
              RecordOp(run->causal_request, CpKind::kExec,
                       dha ? "exec(DHA) " : "exec ", name, primary, primary,
                       op_start, /*bytes=*/0, dha_pcie);
          if (run->causal_request >= 0) {
            causal_->AddEdge(run->last_exec, node);
            if (loads) {
              causal_->AddEdge(pipelined ? run->layer_source[i]
                                         : run->all_loaded_source,
                               node);
            }
            run->last_exec = node;
          }
          op_done();
        });
      });
    } else {
      run->exec.EnqueueDelay(exec);
    }
    run->result.exec_busy += exec;
  }
  run->exec.EnqueueMarker([this, run, done = std::move(done)]() {
    run->result.latency = sim_->now() - run->start;
    run->result.stall = run->exec.wait_time();
    if (run->causal_request >= 0 && run->last_exec != run->causal_root) {
      run->result.causal_terminal = run->last_exec;
    }
    done(run->result);
    // The run is over, but its execute stream still unwinds after this
    // marker returns (and `done` may have synchronously started new work),
    // so the record only retires here; the next RunCold recycles it.
    scratch_->retired.push_back(run);
  });
}

Nanos Engine::WarmDuration(const Model& model, const ExecutionPlan& plan,
                           int batch) const {
  DP_CHECK(plan.num_layers() == model.num_layers());
  Nanos total = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    total += plan.method(i) == ExecMethod::kDirectHostAccess
                 ? perf_->ExecDha(model.layer(i), batch)
                 : perf_->ExecInMemory(model.layer(i), batch);
  }
  return total;
}

Nanos Engine::WarmDhaPcieTime(const Model& model, const ExecutionPlan& plan,
                              int batch) const {
  DP_CHECK(plan.num_layers() == model.num_layers());
  Nanos total = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    if (plan.method(i) == ExecMethod::kDirectHostAccess) {
      total += perf_->DhaPcieTime(model.layer(i), batch);
    }
  }
  return total;
}

void Engine::RunWarm(const Model& model, const ExecutionPlan& plan, int batch,
                     std::function<void(InferenceResult)> done) {
  RunWarmFor(WarmDuration(model, plan, batch), std::move(done));
}

void Engine::RunWarmFor(Nanos duration, std::function<void(InferenceResult)> done) {
  const Nanos start = sim_->now();
  sim_->ScheduleAfter(duration, [this, start, duration, done = std::move(done)]() {
    InferenceResult result;
    result.latency = sim_->now() - start;
    result.exec_busy = duration;
    result.cold = false;
    done(result);
  });
}

}  // namespace deepplan
