// Event-driven execution engine: runs cold-start (provisioning + inference)
// and warm inferences on the simulated server fabric. This is the ground
// truth the analytic pipeline model approximates; under contention (multiple
// GPUs loading at once) only the engine is accurate, because transfers share
// PCIe switch uplinks through the max-min fair fabric.
//
// Per Section 4.3.4, a cold run uses three kinds of streams: a load stream
// per partition (host->GPU over PCIe), a migration stream per secondary GPU
// (GPU->GPU over NVLink), and one execute stream on the primary GPU gated on
// per-layer arrival events (cudaStreamWaitEvent semantics).
#ifndef SRC_ENGINE_ENGINE_H_
#define SRC_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/core/plan.h"
#include "src/hw/topology.h"
#include "src/obs/causal_graph.h"
#include "src/model/model.h"
#include "src/perf/perf_model.h"
#include "src/sim/fabric.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace deepplan {

// Topology-aware route table over a Fabric: one uplink link per PCIe switch,
// one downstream link per GPU, one link per NVLink-connected GPU pair.
class ServerFabric {
 public:
  ServerFabric(Simulator* sim, const Topology* topology);

  Fabric& fabric() { return fabric_; }
  const Topology& topology() const { return *topology_; }

  std::vector<LinkId> HostToGpuPath(GpuId gpu) const;
  std::vector<LinkId> GpuToGpuPath(GpuId from, GpuId to) const;

  LinkId pcie_link(GpuId gpu) const;

  // The route as causal-journal hops (link name + capacity), the per-link
  // overlap export the what-if replay engine rebuilds its fabric from.
  std::vector<CpHop> CausalHops(const std::vector<LinkId>& path) const;

 private:
  Simulator* sim_;
  const Topology* topology_;
  Fabric fabric_;
  std::vector<LinkId> uplink_of_switch_;
  std::vector<LinkId> pcie_of_gpu_;
  std::vector<std::vector<LinkId>> nvlink_;  // -1 when absent
};

// How partitions k>0 reach the primary GPU.
enum class MigrationMode {
  kPipelined,  // forward each layer as it lands (paper's parallel-pipeline)
  kBulk,       // forward the whole partition after it fully lands ("parallel")
};

struct PartitionStats {
  std::int64_t bytes = 0;   // parameter bytes shipped over this PCIe lane
  Nanos pcie_start = -1;    // first transfer start (relative to run start)
  Nanos pcie_done = 0;      // last byte over PCIe
  Nanos arrival_done = 0;   // last byte available on the primary GPU
};

struct InferenceResult {
  Nanos latency = 0;     // request start -> last layer executed
  Nanos exec_busy = 0;   // sum of layer execution times
  Nanos stall = 0;       // execute-stream idle time waiting on arrivals
  Nanos load_done = 0;   // all parameters resident on the primary GPU
  bool cold = false;
  std::vector<PartitionStats> partitions;
  // Last exec node recorded in the causal graph (-1 unless a graph was
  // attached and ColdRunOptions.causal_request was set); the caller passes it
  // to CausalGraph::EndRequest as the request's terminal node.
  CpNodeId causal_terminal = -1;
  // The run's fabric traffic: transfers issued and bytes moved (PCIe loads
  // plus NVLink migrations). Set by Engine cold runs before their first
  // transfer, so a fast-forwarded run reports what its transfers would have
  // moved; 0 for warm runs.
  std::int64_t fabric_transfers = 0;
  std::int64_t fabric_bytes = 0;
};

struct ColdRunOptions {
  int batch = 1;
  // false reproduces the Baseline: execution starts only after the full model
  // is resident.
  bool pipelined = true;
  MigrationMode migration = MigrationMode::kPipelined;
  // Consecutive parameterized layers coalesced into one PCIe transfer.
  // 1 = per-layer transmission (the paper's framing); larger groups amortize
  // the per-copy DMA setup like PipeSwitch's transmission groups, at the
  // cost of coarser pipelining. See bench/ablation_group_size.
  int transfer_group_layers = 1;
  // Causal-graph wiring (profiling): the request this cold run belongs to in
  // the graph attached via set_causal, and the node the run's first
  // operations hang off (an evict node, or the request's arrival node).
  // -1 disables node emission for this run.
  int causal_request = -1;
  CpNodeId causal_root = -1;
};

// Pooled cold-run bookkeeping (defined in engine.cc): an ObjectPool of
// ColdRun records backed by src/util/arena, so a million-cold-start replay
// recycles sync events, streams, and per-partition item lists instead of
// allocating them per run. It also holds the fast-forward templates.
struct EngineScratch;
namespace engine_internal {
struct ColdRun;
struct ColdTemplate;
struct FastForwardRun;
struct NodeScript;
}  // namespace engine_internal

class Engine {
 public:
  Engine(Simulator* sim, ServerFabric* fabric, const PerfModel* perf);
  ~Engine();

  // Attaches a causal graph: cold runs whose options carry a causal_request
  // then record every PCIe transfer, NVLink migration, and layer execution as
  // a happens-before DAG node (with solo durations on transfers for
  // contention attribution), in absolute time on resources "pcie/gpu<g>",
  // "nvlink/<a>-><b>" and "exec/gpu<g>"; traces are derived from it. nullptr detaches; disabled cost is one pointer
  // test per operation. Installs the graph's pre-record hook, through which
  // fast-forwarded runs emit their nodes in the order an event-by-event run
  // records them; one engine per graph at a time (DP_CHECKed).
  void set_causal(CausalGraph* graph);

  // Cold start: provision `model` according to `plan` onto `primary`
  // (partitions k>0 load via secondaries[k-1]) and execute one inference.
  // `done` fires at completion. Multiple concurrent runs interact through the
  // shared fabric.
  //
  // A run that starts on an idle fabric is fast-forwarded (DESIGN.md §16): one completion event replays a memoized
  // template of the same run, and a run recording causal nodes emits the
  // template's node script with the ids the event-by-event run assigns. If
  // another transfer joins while the template's transfers would still be on
  // the fabric, the run is first caught up event by event to that instant.
  // Results, timing and journals are identical either way.
  void RunCold(const Model& model, const ExecutionPlan& plan, GpuId primary,
               std::vector<GpuId> secondaries, const ColdRunOptions& options,
               std::function<void(InferenceResult)> done);

  // Test oracle: off sends every cold run event by event, the path fast-
  // forwarding must match bit for bit (tests/fastforward_diff_test.cc).
  void set_fast_forward_for_testing(bool on) { fast_forward_ = on; }

  // Warm inference: parameters already placed per `plan` (DHA layers execute
  // from host memory even when warm — that is DeepPlan's residency tradeoff).
  // Pass a default all-load plan for fully GPU-resident models. The server
  // does not call this: it schedules its warm completions as inline events
  // with the WarmDuration it cached at registration.
  void RunWarm(const Model& model, const ExecutionPlan& plan, int batch,
               std::function<void(InferenceResult)> done);

  // Duration a warm inference takes (closed form; RunWarm occupies this).
  Nanos WarmDuration(const Model& model, const ExecutionPlan& plan, int batch) const;

  // PCIe-bandwidth-dependent share of WarmDuration: the summed DHA parameter
  // streaming time of the plan's direct-host-access layers. Recorded on warm
  // exec nodes so the what-if engine can rescale them under virtual PCIe
  // speedups.
  Nanos WarmDhaPcieTime(const Model& model, const ExecutionPlan& plan,
                        int batch) const;

 private:
  using ColdRun = engine_internal::ColdRun;
  using ColdTemplate = engine_internal::ColdTemplate;
  using FastForwardRun = engine_internal::FastForwardRun;
  using NodeScript = engine_internal::NodeScript;

  // Why a fast-forwarded run is replayed event by event.
  enum class CatchUpCause {
    kJoin,           // a transfer starts inside the run's fabric reservation
    kCompletionTie,  // other events are due at the run's completion instant
    kRecordTie,      // a graph mutation comes at the instant of a script node
  };

  // The event-by-event cold run: builds the run's streams and starts its
  // transfer chains. `reuse` holds the graph ids a fast-forwarded run already
  // emitted for the first script nodes, which a catch-up hands back instead
  // of recording them again.
  void StartCold(const Model& model, const ExecutionPlan& plan, GpuId primary,
                 const std::vector<GpuId>& secondaries,
                 const ColdRunOptions& options,
                 std::function<void(InferenceResult)> done,
                 const std::vector<CpNodeId>& reuse = {});
  // Counts one of the run's fabric transfers as finished.
  void OnTransferDone(ColdRun* run);
  // The memoized template for this run's value key, built on first use;
  // with `scripted`, its node script too (built on the first recording hit).
  ColdTemplate& TemplateFor(const Model& model, const ExecutionPlan& plan,
                            GpuId primary, const std::vector<GpuId>& secondaries,
                            const ColdRunOptions& options, bool scripted);
  // Fills `tmpl`'s value from one private isolated run of its key, and its
  // node script when `scripted`.
  void RunIsolated(ColdTemplate& tmpl, bool scripted);
  // No transfer in flight, none still to be issued, no open reservation.
  bool FabricIdle() const;
  // Whether a recorded run of `script` started now would emit a node (or
  // complete, after `latency`) at the same instant as a recorded fast-
  // forwarded run in flight: their relative order is unknown, so it runs
  // event by event instead.
  bool CollidesWithRecording(const NodeScript& script, Nanos latency) const;
  void FastForward(const ColdTemplate& tmpl, const ColdRunOptions& options,
                   std::function<void(InferenceResult)> done);
  void FinishFastForward(FastForwardRun* ff);
  // Replays a fast-forwarded run event by event up to the current instant
  // (for kCompletionTie: up to just before it) and leaves it running event
  // by event from there. The replay runs on a private fabric once the run's
  // transfers have all left the real one.
  void Materialize(FastForwardRun* ff, CatchUpCause cause);

  // The graph's pre-record hook: emits, in time order across runs, every
  // script node the event-by-event runs would have recorded before the
  // mutation about to happen, and catches up a run whose next node is due
  // at this very instant. `finishing` (completing now) is never caught up.
  void EmitScripts(const FastForwardRun* finishing = nullptr);
  // Emits `ff`'s next script node and the edges recorded with it.
  void EmitScriptNode(FastForwardRun* ff);
  // Drops `ff` from the runs with script nodes still to emit.
  void StopRecording(const FastForwardRun* ff);

  // Records one finished cold-run operation, [start, now] in absolute time,
  // as a causal node when the run has a causal request. Label
  // ("<verb><name>") and resource ("pcie/gpu<to>", "nvlink/<from>-><to>",
  // "exec/gpu<to>") are built only then, and transfers also get their solo
  // duration and route. Returns the node (-1 when none is recorded) so the
  // caller can wire its happens-before edges with RecordEdge.
  CpNodeId RecordOp(ColdRun* run, CpKind kind, std::string_view verb,
                    std::string_view name, GpuId from, GpuId to, Nanos start,
                    std::int64_t bytes = 0, Nanos dha_pcie = 0);
  // Records a happens-before edge into the node RecordOp just returned,
  // unless that node was handed back from `reuse` (its edges were emitted
  // with it).
  void RecordEdge(const ColdRun* run, CpNodeId from, CpNodeId to);

  Simulator* sim_;
  ServerFabric* fabric_;
  const PerfModel* perf_;
  CausalGraph* causal_ = nullptr;
  std::shared_ptr<CausalRecordHook> record_hook_;  // installed on causal_
  // Recorded fast-forwarded runs with script nodes still to emit, and
  // whether EmitScripts is emitting (its own graph calls skip the hook).
  std::vector<FastForwardRun*> recording_;
  bool emitting_ = false;
  bool fast_forward_ = true;
  // Event-by-event cold runs with fabric transfers still to finish.
  int fabric_runs_ = 0;
  std::unique_ptr<EngineScratch> scratch_;
};

}  // namespace deepplan

#endif  // SRC_ENGINE_ENGINE_H_
