// Chrome traces of serving runs, derived after the run (DESIGN.md §8): the
// causal graph's view (CausalTrace, src/obs/whatif/whatif.h) plus each
// server's tracks, from the request records it keeps for its metrics:
// "queue/gpu<g>" depth and "cum/requests" counters (one sample per instant,
// the value after it), and per cold request its queue wait (async,
// "queued/gpu<g>", ids counting cold requests in completion order) and its
// evict/transfer/exec phase spans on "coldstart/gpu<g>", which tile
// [start, completion].
#ifndef SRC_SERVING_SERVING_TRACE_H_
#define SRC_SERVING_SERVING_TRACE_H_

#include <vector>

#include "src/obs/causal_graph.h"
#include "src/serving/cluster.h"
#include "src/serving/metrics.h"
#include "src/util/chrome_trace.h"

namespace deepplan {

// The trace of serving runs whose server p recorded into process p of
// `graph` (stitched with CausalGraph::Adopt when several runs share it):
// CausalTrace(graph) plus the tracks of servers[p] as process p.
TraceDocument ServingTrace(const CausalGraph& graph,
                           const std::vector<const ServingMetrics*>& servers);

// The trace of a cluster run whose back-ends recorded into `graphs`
// (attached with Cluster::set_causal): process "router" (pid 0) holds one
// instant per routing decision ("i<instance>->s<back-end>" at the arrival),
// and back-end i is process 1 + i.
TraceDocument ClusterTrace(const Cluster& cluster,
                           std::vector<CausalGraph> graphs);

}  // namespace deepplan

#endif  // SRC_SERVING_SERVING_TRACE_H_
