#include "src/serving/serving_trace.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "src/obs/whatif/whatif.h"
#include "src/util/logging.h"

namespace deepplan {

namespace {

// Appends a counter track from (instant, change) pairs: one sample per
// instant, holding the running total after it.
void AppendRunningCounter(std::vector<std::pair<Nanos, int>> changes, int pid,
                          const std::string& track, const char* series,
                          TraceDocument* doc) {
  std::sort(changes.begin(), changes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::int64_t value = 0;
  for (std::size_t i = 0; i < changes.size(); ++i) {
    value += changes[i].second;
    if (i + 1 == changes.size() || changes[i + 1].first != changes[i].first) {
      doc->events.push_back(TraceEvent{TracePhase::kCounter, pid, track, series,
                                       changes[i].first, 0,
                                       static_cast<double>(value)});
    }
  }
}

// Appends one server's tracks, as process `pid`, to `doc`.
void AppendServerTrace(const std::vector<RequestRecord>& records, int pid,
                       TraceDocument* doc) {
  std::map<int, std::vector<std::pair<Nanos, int>>> queue_changes;  // per GPU
  std::vector<std::pair<Nanos, int>> arrivals;
  arrivals.reserve(records.size());
  std::uint64_t next_queue_id = 0;
  for (const RequestRecord& r : records) {
    DP_CHECK(r.gpu >= 0);
    // A request joins its GPU's queue at arrival and leaves it at dispatch.
    queue_changes[r.gpu].emplace_back(r.arrival, 1);
    queue_changes[r.gpu].emplace_back(r.start, -1);
    arrivals.emplace_back(r.arrival, 1);
    if (!r.cold) {
      continue;
    }
    const std::string gpu = std::to_string(r.gpu);
    const std::string suffix = " i" + std::to_string(r.instance);
    const std::uint64_t id = next_queue_id++;
    doc->events.push_back(TraceEvent{TracePhase::kAsyncBegin, pid,
                                     "queued/gpu" + gpu, "queue" + suffix,
                                     r.arrival, 0, 0.0, id});
    doc->events.push_back(TraceEvent{TracePhase::kAsyncEnd, pid,
                                     "queued/gpu" + gpu, "queue" + suffix,
                                     r.start, 0, 0.0, id});
    const std::string track = "coldstart/gpu" + gpu;
    if (r.evict > 0) {
      doc->events.push_back(TraceEvent{
          TracePhase::kSpan, pid, track,
          "evict x" + std::to_string(r.evictions) + suffix, r.start, r.evict});
    }
    doc->events.push_back(TraceEvent{TracePhase::kSpan, pid, track,
                                     "transfer" + suffix, r.start + r.evict,
                                     r.load});
    doc->events.push_back(TraceEvent{TracePhase::kSpan, pid, track,
                                     "exec" + suffix,
                                     r.start + r.evict + r.load, r.ExecTime()});
  }
  for (auto& [gpu, changes] : queue_changes) {
    AppendRunningCounter(std::move(changes), pid,
                         "queue/gpu" + std::to_string(gpu), "depth", doc);
  }
  AppendRunningCounter(std::move(arrivals), pid, "cum/requests", "count", doc);
}

}  // namespace

TraceDocument ServingTrace(const CausalGraph& graph,
                           const std::vector<const ServingMetrics*>& servers) {
  TraceDocument doc = CausalTrace(graph);
  for (std::size_t p = 0; p < servers.size(); ++p) {
    AppendServerTrace(servers[p]->records(), static_cast<int>(p), &doc);
  }
  return doc;
}

TraceDocument ClusterTrace(const Cluster& cluster,
                           std::vector<CausalGraph> graphs) {
  DP_CHECK(static_cast<int>(graphs.size()) == cluster.num_servers());
  CausalGraph merged(/*enabled=*/true);
  const int router = merged.RegisterProcess("router");
  for (CausalGraph& graph : graphs) {
    merged.Adopt(std::move(graph));
  }
  TraceDocument doc = CausalTrace(merged);
  for (int s = 0; s < cluster.num_servers(); ++s) {
    const std::vector<RequestRecord>& records =
        cluster.server(s).metrics().records();
    AppendServerTrace(records, 1 + s, &doc);
    for (const RequestRecord& r : records) {
      doc.events.push_back(TraceEvent{
          TracePhase::kInstant, router, "router",
          "i" + std::to_string(r.instance) + "->s" + std::to_string(s),
          r.arrival});
    }
  }
  return doc;
}

}  // namespace deepplan
