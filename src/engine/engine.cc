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
  // Label for the causal graph; left empty (not built) when it does not
  // record this run, which is the serving hot path.
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
  int pending_transfers = 0;  // fabric transfers not yet finished
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
  // Catch-up of a recorded fast-forwarded run: graph ids its script already
  // emitted, the number of nodes recorded (or handed back) so far, and
  // whether the last RecordOp handed one back.
  std::vector<CpNodeId> reuse;
  std::size_t records = 0;
  bool reused_last = false;
};

// What a recorded run of a template emits to the causal graph, in record
// order, with times relative to the run's start: each node with the edges
// into it, which the run records right after the node.
struct NodeScript {
  static constexpr int kRoot = -1;  // stands for the run's causal_root
  struct Entry {
    CpNode node;            // id and request unset
    std::vector<int> from;  // edge sources: script indices, or kRoot
  };
  std::vector<Entry> entries;
  int terminal = -1;  // script index of the causal terminal (-1: none)
};

// A memoized isolated cold run. The key is the run's full value (model,
// plan, options, GPUs), compared by content: the caller's objects may move.
// The value is what the run produces and when its last transfer leaves the
// fabric, both relative to the run's start.
struct ColdTemplate {
  Model model;
  ExecutionPlan plan;
  GpuId primary = 0;
  std::vector<GpuId> secondaries;
  ColdRunOptions options;  // causal fields cleared
  InferenceResult result;
  Nanos fabric_end = -1;  // -1: the run issues no transfer
  // Built on the first run of this key that records causal nodes.
  std::unique_ptr<NodeScript> script;
};

// A fast-forwarded run in flight.
struct FastForwardRun {
  const ColdTemplate* tmpl = nullptr;
  Nanos start = 0;
  std::uint64_t start_seq = 0;  // schedule position at RunCold
  std::function<void(InferenceResult)> done;
  EventQueue::EventId completion = 0;
  // Recorded runs: the graph request, the node the script's root stands
  // for, the script position and the graph ids of the nodes emitted so far.
  int causal_request = -1;
  CpNodeId causal_root = -1;
  std::size_t next_node = 0;
  std::vector<CpNodeId> emitted;

  // Absolute time the next script node is recorded at (its end).
  Nanos NextRecordAt() const {
    return start + tmpl->script->entries[next_node].node.end;
  }
  bool recording() const {
    return causal_request >= 0 && next_node < tmpl->script->entries.size();
  }
};

namespace {

bool SameLayer(const Layer& a, const Layer& b) {
  return a.name == b.name && a.kind == b.kind && a.param_bytes == b.param_bytes &&
         a.flops == b.flops && a.act_bytes == b.act_bytes &&
         a.dha_param_traffic_bytes == b.dha_param_traffic_bytes &&
         a.dha_traffic_scales_with_batch == b.dha_traffic_scales_with_batch;
}

bool SameKey(const ColdTemplate& t, const Model& model, const ExecutionPlan& plan,
             GpuId primary, const std::vector<GpuId>& secondaries,
             const ColdRunOptions& options) {
  if (t.primary != primary || t.secondaries != secondaries ||
      t.options.batch != options.batch ||
      t.options.pipelined != options.pipelined ||
      t.options.migration != options.migration ||
      t.options.transfer_group_layers != options.transfer_group_layers ||
      t.model.num_layers() != model.num_layers() ||
      t.plan.num_partitions() != plan.num_partitions() ||
      t.model.ref_tokens() != model.ref_tokens() ||
      t.model.name() != model.name() || t.plan.model_name() != plan.model_name()) {
    return false;
  }
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    if (t.plan.method(i) != plan.method(i) ||
        t.plan.partition(i) != plan.partition(i) ||
        !SameLayer(t.model.layer(i), model.layer(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

}  // namespace engine_internal

using engine_internal::ColdRun;
using engine_internal::ColdTemplate;
using engine_internal::FastForwardRun;
using engine_internal::LoadItem;
using engine_internal::NodeScript;

// Pool of reusable ColdRun records plus the deferred-release list. A run
// cannot be released the moment its completion callback fires: the execute
// stream's op machinery still runs (on the run's own Stream member) after the
// marker returns, and the callback may synchronously start another inference.
// Retired runs are instead recycled at the next RunCold, which always begins
// from a fresh event dispatch, by which point every prior run is quiescent.
struct EngineScratch {
  ObjectPool<ColdRun> pool;
  std::vector<ColdRun*> retired;
  std::vector<std::unique_ptr<ColdTemplate>> templates;
  ObjectPool<FastForwardRun> fast_forwards;
  // Fabric a completion-time catch-up replays on, so it never disturbs
  // transfers that started on the real fabric after the run's last one left.
  std::unique_ptr<ServerFabric> replay_fabric;
};

Engine::Engine(Simulator* sim, ServerFabric* fabric, const PerfModel* perf)
    : sim_(sim), fabric_(fabric), perf_(perf),
      scratch_(std::make_unique<EngineScratch>()) {
  DP_CHECK(sim != nullptr && fabric != nullptr && perf != nullptr);
}

Engine::~Engine() {
  if (record_hook_ != nullptr) {
    record_hook_->Disarm();
  }
}

void Engine::set_causal(CausalGraph* graph) {
  if (graph == causal_) {
    return;
  }
  DP_CHECK(recording_.empty());
  if (record_hook_ != nullptr) {
    // The old graph may already be gone; a disarmed hook is inert.
    record_hook_->Disarm();
    record_hook_ = nullptr;
  }
  causal_ = graph;
  if (graph != nullptr) {
    record_hook_ = std::make_shared<CausalRecordHook>([this]() { EmitScripts(); });
    graph->SetRecordHook(record_hook_);
  }
}

CpNodeId Engine::RecordOp(ColdRun* run, CpKind kind, std::string_view verb,
                          std::string_view name, GpuId from, GpuId to,
                          Nanos start, std::int64_t bytes, Nanos dha_pcie) {
  const int causal_request = run->causal_request;
  if (causal_request < 0) {
    return -1;
  }
  const Nanos end = sim_->now();
  run->reused_last = run->records < run->reuse.size();
  if (run->reused_last) {
    // Emitted already from the script of the fast-forwarded run this one
    // replays.
    return run->reuse[run->records++];
  }
  std::string label;
  label.reserve(verb.size() + name.size());
  label.append(verb).append(name);
  std::string track =
      kind == CpKind::kPcie     ? "pcie/gpu" + std::to_string(to)
      : kind == CpKind::kNvlink ? "nvlink/" + std::to_string(from) + "->" + std::to_string(to)
                                : "exec/gpu" + std::to_string(to);
  ++run->records;
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

void Engine::RecordEdge(const ColdRun* run, CpNodeId from, CpNodeId to) {
  if (!run->reused_last) {
    causal_->AddEdge(from, to);
  }
}

void Engine::RunCold(const Model& model, const ExecutionPlan& plan, GpuId primary,
                     std::vector<GpuId> secondaries, const ColdRunOptions& options,
                     std::function<void(InferenceResult)> done) {
  // Times the synchronous DAG construction (per-layer op enqueues); the ops
  // themselves execute later under sim.dispatch / exec.stream.
  DP_SELFPROF_SCOPE(kColdStart);
  DP_CHECK(plan.num_layers() == model.num_layers());
  DP_CHECK(static_cast<int>(secondaries.size()) >= plan.num_partitions() - 1);

  // Recycle runs that retired since the last call (see EngineScratch).
  for (ColdRun* r : scratch_->retired) {
    scratch_->pool.Release(r);
  }
  scratch_->retired.clear();

  const bool journaled = causal_ != nullptr && causal_->enabled() &&
                         options.causal_request >= 0;
  if (fast_forward_) {
    const ColdTemplate& tmpl =
        TemplateFor(model, plan, primary, secondaries, options, journaled);
    // A run without transfers never touches the fabric. The completion must
    // come strictly after the last transfer leaves, so that no catch-up at
    // completion ever holds one of the fabric's events.
    const bool isolated = tmpl.fabric_end < 0 ||
                          (tmpl.result.latency > tmpl.fabric_end && FabricIdle());
    if (isolated && (!journaled || !CollidesWithRecording(*tmpl.script,
                                                          tmpl.result.latency))) {
      FastForward(tmpl, options, std::move(done));
      return;
    }
  }
  StartCold(model, plan, primary, secondaries, options, std::move(done));
}

bool Engine::FabricIdle() const {
  const Fabric& fabric = fabric_->fabric();
  return fabric_runs_ == 0 && fabric.active_transfers() == 0 &&
         !fabric.reserved();
}

ColdTemplate& Engine::TemplateFor(const Model& model, const ExecutionPlan& plan,
                                  GpuId primary,
                                  const std::vector<GpuId>& secondaries,
                                  const ColdRunOptions& options, bool scripted) {
  for (const std::unique_ptr<ColdTemplate>& t : scratch_->templates) {
    if (engine_internal::SameKey(*t, model, plan, primary, secondaries, options)) {
      if (scripted && t->script == nullptr) {
        const Nanos latency = t->result.latency;
        RunIsolated(*t, /*scripted=*/true);
        DP_CHECK(t->result.latency == latency);
      }
      return *t;
    }
  }
  auto tmpl = std::make_unique<ColdTemplate>();
  tmpl->model = model;
  tmpl->plan = plan;
  tmpl->primary = primary;
  tmpl->secondaries = secondaries;
  tmpl->options = options;
  tmpl->options.causal_request = -1;
  tmpl->options.causal_root = -1;
  RunIsolated(*tmpl, scripted);
  scratch_->templates.push_back(std::move(tmpl));
  return *scratch_->templates.back();
}

void Engine::RunIsolated(ColdTemplate& tmpl, bool scripted) {
  // The cold start alone on a private simulator and fabric. Fabric and
  // engine arithmetic use only time differences, so the result holds for the
  // same run started at any time on an idle fabric. Recording moves no
  // event, so a scripted run is the unscripted one bit for bit.
  // Charged to the enclosing engine.cold_start scope as time only: the
  // private run's events and solves are not the profiled simulation's.
  const selfprof::SuspendLane suspend;
  Simulator sim;
  ServerFabric fabric(&sim, &fabric_->topology());
  Engine engine(&sim, &fabric, perf_);
  engine.fast_forward_ = false;
  // A scripted run records into a private graph from time 0 as request 0,
  // whose arrival node 0 is the root.
  CausalGraph graph(/*enabled=*/true);
  ColdRunOptions options = tmpl.options;
  if (scripted) {
    engine.set_causal(&graph);
    options.causal_request = graph.BeginRequest(0, 0, 0);
    options.causal_root = graph.arrival_node(options.causal_request);
    DP_CHECK(options.causal_root == 0);
  }
  bool finished = false;
  engine.RunCold(tmpl.model, tmpl.plan, tmpl.primary, tmpl.secondaries, options,
                 [&](const InferenceResult& result) {
                   tmpl.result = result;
                   finished = true;
                 });
  sim.Run();
  DP_CHECK(finished);
  tmpl.fabric_end = fabric.fabric().last_departure();
  if (!scripted) {
    return;
  }
  auto script = std::make_unique<NodeScript>();
  const std::vector<CpNode>& nodes = graph.nodes();
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    NodeScript::Entry entry;
    entry.node = nodes[i];
    entry.node.id = -1;
    entry.node.request = -1;
    // Record time (the end) never decreases along the script.
    DP_CHECK(script->entries.empty() ||
             entry.node.end >= script->entries.back().node.end);
    script->entries.push_back(std::move(entry));
  }
  int last_to = 0;
  for (const auto& [from, to] : graph.edges()) {
    // Grouping edges by target keeps their order only if targets ascend.
    DP_CHECK(to > 0 && to >= last_to);
    last_to = to;
    script->entries[Idx(to - 1)].from.push_back(
        from == 0 ? NodeScript::kRoot : from - 1);
  }
  const CpNodeId terminal = tmpl.result.causal_terminal;
  script->terminal = terminal >= 0 ? terminal - 1 : -1;
  tmpl.result.causal_terminal = -1;
  tmpl.script = std::move(script);
}

bool Engine::CollidesWithRecording(const NodeScript& script,
                                   Nanos latency) const {
  // Record time of script node i of a run started at `start`; i == size is
  // the completion, which comes last.
  const auto record_at = [](const NodeScript& sc, std::size_t i, Nanos start,
                            Nanos run_latency) {
    return start + (i < sc.entries.size() ? sc.entries[i].node.end : run_latency);
  };
  for (const FastForwardRun* other : recording_) {
    // Both lists ascend, so one merge walk finds any shared instant.
    const NodeScript& theirs = *other->tmpl->script;
    std::size_t i = 0;
    std::size_t j = other->next_node;
    while (i <= script.entries.size() && j <= theirs.entries.size()) {
      const Nanos a = record_at(script, i, sim_->now(), latency);
      const Nanos b =
          record_at(theirs, j, other->start, other->tmpl->result.latency);
      if (a == b) {
        return true;
      }
      if (a < b) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return false;
}

void Engine::FastForward(const ColdTemplate& tmpl, const ColdRunOptions& options,
                         std::function<void(InferenceResult)> done) {
  selfprof::AddCount(selfprof::Counter::kColdFastForward, 1);
  FastForwardRun* ff = scratch_->fast_forwards.Acquire();
  ff->tmpl = &tmpl;
  ff->start = sim_->now();
  ff->start_seq = sim_->next_seq();
  ff->done = std::move(done);
  ff->causal_request = -1;
  ff->causal_root = -1;
  ff->next_node = 0;
  ff->emitted.clear();
  if (causal_ != nullptr && causal_->enabled() && options.causal_request >= 0) {
    ff->causal_request = options.causal_request;
    ff->causal_root = options.causal_root >= 0
                          ? options.causal_root
                          : causal_->arrival_node(options.causal_request);
    if (ff->recording()) {
      recording_.push_back(ff);
    }
  }
  sim_->HoldDispatchLog(ff->start);
  if (tmpl.fabric_end >= 0) {
    fabric_->fabric().Reserve(ff->start + tmpl.fabric_end, [this, ff]() {
      Materialize(ff, CatchUpCause::kJoin);
    });
  }
  ff->completion = sim_->ScheduleAt(ff->start + tmpl.result.latency,
                                    [this, ff]() { FinishFastForward(ff); });
}

void Engine::FinishFastForward(FastForwardRun* ff) {
  Fabric& fabric = fabric_->fabric();
  if (!fabric.reserved()) {
    fabric.ReleaseReservation();  // ours, expired (or none)
  }
  // The completion event stands in for the run's last exec event. Anything
  // else due at this instant may belong before or after that event, so the
  // run is replayed to find its exact position (same-ns tie rule).
  if (!sim_->idle() && sim_->NextEventTime() == sim_->now()) {
    Materialize(ff, CatchUpCause::kCompletionTie);
    return;
  }
  InferenceResult result = ff->tmpl->result;
  if (ff->causal_request >= 0) {
    // Everything the run records is due by now: it goes out in time order
    // with the other runs' nodes before the completion's own mutations.
    EmitScripts(ff);
    StopRecording(ff);
    while (ff->recording()) {
      EmitScriptNode(ff);
    }
    const int terminal = ff->tmpl->script->terminal;
    result.causal_terminal = terminal >= 0 ? ff->emitted[Idx(terminal)] : -1;
  }
  std::function<void(InferenceResult)> done = std::move(ff->done);
  sim_->ReleaseDispatchLog(ff->start);
  scratch_->fast_forwards.Release(ff);
  done(result);
}

void Engine::EmitScripts(const FastForwardRun* finishing) {
  if (emitting_ || recording_.empty()) {
    return;
  }
  const Nanos now = sim_->now();
  // Nodes due at now() precede this mutation only once every event at now()
  // has fired (a drained RunUntil horizon).
  const bool through_now = sim_->drained_through_now();
  for (;;) {
    FastForwardRun* next = nullptr;
    for (FastForwardRun* ff : recording_) {
      if (ff->recording() &&
          (next == nullptr || ff->NextRecordAt() < next->NextRecordAt())) {
        next = ff;
      }
    }
    if (next == nullptr || next->NextRecordAt() > now ||
        (next->NextRecordAt() == now && !through_now)) {
      break;
    }
    EmitScriptNode(next);
  }
  if (!sim_->in_dispatch()) {
    return;  // nodes due at now() come after this mutation
  }
  // A node due at this instant may come before or after the current
  // dispatch: replay its run to find out (same-ns tie rule). At most one run
  // has one, as CollidesWithRecording keeps their record instants apart.
  for (FastForwardRun* ff : recording_) {
    if (ff != finishing && ff->recording() && ff->NextRecordAt() == now) {
      DP_CHECK(!sim_->catching_up());
      Materialize(ff, CatchUpCause::kRecordTie);
      break;
    }
  }
}

void Engine::EmitScriptNode(FastForwardRun* ff) {
  emitting_ = true;  // the emission's own graph calls skip the hook
  const NodeScript::Entry& entry = ff->tmpl->script->entries[ff->next_node];
  CpNode node = entry.node;
  node.request = ff->causal_request;
  node.start += ff->start;
  node.end += ff->start;
  const CpNodeId id = causal_->AddNode(std::move(node));
  ff->emitted.push_back(id);
  for (const int from : entry.from) {
    causal_->AddEdge(
        from == NodeScript::kRoot ? ff->causal_root : ff->emitted[Idx(from)],
        id);
  }
  ++ff->next_node;
  emitting_ = false;
}

void Engine::StopRecording(const FastForwardRun* ff) {
  recording_.erase(std::remove(recording_.begin(), recording_.end(), ff),
                   recording_.end());
}

void Engine::Materialize(FastForwardRun* ff, CatchUpCause cause) {
  selfprof::AddCount(selfprof::Counter::kColdMaterialized, 1);
  const ColdTemplate& tmpl = *ff->tmpl;
  StopRecording(ff);
  ServerFabric* const real_fabric = fabric_;
  Fabric& fabric = real_fabric->fabric();
  // The replay issues the run's transfers on the real fabric while they
  // would still be on it (inside the reservation, which is then the run's
  // own: nothing else reserves a busy fabric), else on a private one.
  const bool on_real_fabric =
      cause == CatchUpCause::kJoin ||
      (cause == CatchUpCause::kRecordTie && tmpl.fabric_end >= 0 &&
       sim_->now() <= ff->start + tmpl.fabric_end);
  if (cause != CatchUpCause::kCompletionTie) {
    sim_->Cancel(ff->completion);
  }
  if (cause == CatchUpCause::kRecordTie && (on_real_fabric || !fabric.reserved())) {
    fabric.ReleaseReservation();  // ours, open or expired (or none)
  }
  if (!on_real_fabric) {
    if (scratch_->replay_fabric == nullptr) {
      scratch_->replay_fabric =
          std::make_unique<ServerFabric>(sim_, &fabric_->topology());
    }
    fabric_ = scratch_->replay_fabric.get();
  }
  ColdRunOptions options = tmpl.options;
  options.causal_request = ff->causal_request;
  options.causal_root = ff->causal_root;
  std::function<void(InferenceResult)> done = std::move(ff->done);
  sim_->CatchUp(
      ff->start, ff->start_seq,
      cause == CatchUpCause::kCompletionTie ? Simulator::CatchUpUntil::kBeforeNow
                                            : Simulator::CatchUpUntil::kCurrentDispatch,
      [&]() {
        StartCold(tmpl.model, tmpl.plan, tmpl.primary, tmpl.secondaries,
                  options, std::move(done), ff->emitted);
      },
      [&]() {
        // The joining Start's reallocation re-issues these, exactly as the
        // event-by-event run does at this instant.
        if (cause == CatchUpCause::kJoin) {
          fabric_->fabric().DropCompletionEvents();
        }
      });
  if (cause == CatchUpCause::kRecordTie && on_real_fabric) {
    fabric.FollowSplicedCompletionEvents();  // no Start re-issues them
  }
  fabric_ = real_fabric;
  sim_->ReleaseDispatchLog(ff->start);
  scratch_->fast_forwards.Release(ff);
}

void Engine::OnTransferDone(ColdRun* run) {
  if (--run->pending_transfers == 0) {
    --fabric_runs_;
  }
}

void Engine::StartCold(const Model& model, const ExecutionPlan& plan,
                       GpuId primary, const std::vector<GpuId>& secondaries,
                       const ColdRunOptions& options,
                       std::function<void(InferenceResult)> done,
                       const std::vector<CpNodeId>& reuse) {
  const std::size_t n = model.num_layers();
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
  run->reuse.assign(reuse.begin(), reuse.end());
  run->records = 0;
  run->reused_last = false;

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

  // Operation labels are consumed only by the causal graph; skip the string
  // building entirely when it does not record this run (the serving hot
  // path).
  const bool want_names = run->causal_request >= 0;

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
  run->pending_transfers = 0;
  run->result.fabric_bytes = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const int items = static_cast<int>(run->part_items[p].size());
    run->pending_transfers += items;
    if (p > 0 && items > 0) {
      run->pending_transfers +=
          options.migration == MigrationMode::kPipelined ? items : 1;
    }
    // Partitions above 0 ship their bytes twice: PCIe to a secondary GPU,
    // then NVLink to the primary.
    run->result.fabric_bytes +=
        (p > 0 ? 2 : 1) * run->result.partitions[p].bytes;
  }
  run->result.fabric_transfers = run->pending_transfers;
  if (run->pending_transfers > 0) {
    ++fabric_runs_;
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
            const CpNodeId node = RecordOp(run, CpKind::kPcie, "load ", item.name,
                                           target, target, op_start, item.bytes);
            if (run->causal_request >= 0) {
              RecordEdge(run, run->pcie_prev[Idx(p)], node);
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
            OnTransferDone(run);
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
                    RecordOp(run, CpKind::kNvlink, "migrate ", item.name, src,
                             primary, op_start, item.bytes);
                if (run->causal_request >= 0) {
                  RecordEdge(run, run->mig_prev[Idx(p)], node);
                  // The migration waited on this item's PCIe delivery to the
                  // secondary GPU (one PCIe node covers the whole item).
                  RecordEdge(run,
                             run->secondary_source[item.layer_indices.front()],
                             node);
                  run->mig_prev[Idx(p)] = node;
                  for (const std::size_t li : item.layer_indices) {
                    run->layer_source[li] = node;
                  }
                }
                for (const std::size_t li : item.layer_indices) {
                  on_arrival(li, p);
                }
                OnTransferDone(run);
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
              const CpNodeId node = RecordOp(run, CpKind::kNvlink, "migrate ",
                                             name, src, primary, op_start, bytes);
              if (run->causal_request >= 0) {
                RecordEdge(run, run->mig_prev[Idx(p)], node);
                for (const LoadItem& item : run->part_items[Idx(p)]) {
                  RecordEdge(run,
                             run->secondary_source[item.layer_indices.front()],
                             node);
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
              OnTransferDone(run);
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
              RecordOp(run, CpKind::kExec, dha ? "exec(DHA) " : "exec ", name,
                       primary, primary, op_start, /*bytes=*/0, dha_pcie);
          if (run->causal_request >= 0) {
            RecordEdge(run, run->last_exec, node);
            if (loads) {
              RecordEdge(run,
                         pipelined ? run->layer_source[i] : run->all_loaded_source,
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
  const Nanos start = sim_->now();
  const Nanos duration = WarmDuration(model, plan, batch);
  sim_->ScheduleAfter(duration, [this, start, duration, done = std::move(done)]() {
    InferenceResult result;
    result.latency = sim_->now() - start;
    result.exec_busy = duration;
    result.cold = false;
    done(result);
  });
}

}  // namespace deepplan
