// Named metrics for a simulation run: monotonic counters and sample
// histograms, with deterministic JSON snapshot export. One writer fills it:
// the server, once per retired request (Server::set_telemetry), so the
// registry is a summary of the per-request records and holds nothing they do
// not. Its snapshot lands in the bench's BENCH_<name>.json report.
//
// Naming convention: dotted lowercase paths, component first —
//   server.requests, server.cold_starts, server.warm_hits, server.evictions,
//   server.latency_ms (histogram),
//   fabric.transfers, fabric.bytes (the retired cold starts' transfers).
//
// Export order is the sorted metric name, so identical runs render to
// identical bytes regardless of the order metrics were first touched.
//
// Internally synchronized (GUARDED_BY mu_): every mutation is commutative
// (counter adds, histogram sample multiset) and the export is sorted, so a
// registry shared across threads stays deterministic.
#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/util/histogram.h"
#include "src/util/json.h"
#include "src/util/stats.h"
#include "src/util/thread_annotations.h"

namespace deepplan {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Movable so sweep tasks can return a registry inside their result struct
  // (SweepRunner task-index slots). Moves run under the standard exclusive-
  // access contract — no other thread may touch either object during the
  // move, which is exactly the hand-off situation they exist for — so they
  // deliberately bypass the lock; each object keeps its own (non-movable)
  // mutex.
  MetricsRegistry(MetricsRegistry&& other) noexcept NO_THREAD_SAFETY_ANALYSIS;
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void AddCounter(const std::string& name, std::int64_t delta = 1)
      EXCLUDES(mu_);
  // 0 when the counter was never touched.
  std::int64_t counter(const std::string& name) const EXCLUDES(mu_);

  void Observe(const std::string& name, double sample) EXCLUDES(mu_);
  HistogramSummary histogram(const std::string& name) const EXCLUDES(mu_);

  bool empty() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return counters_.empty() && histograms_.empty();
  }

  // {"counters":{...},"histograms":{name:{count,mean,min,max,
  // p50,p95,p99}}} with sorted keys; empty sections are omitted.
  JsonObject Snapshot() const EXCLUDES(mu_);
  JsonObject ToJsonObject() const { return Snapshot(); }  // legacy name
  std::string ToJson() const { return Snapshot().Render(); }

 private:
  // Summarizes a by-value copy so Snapshot() can render histograms without
  // re-entering the (non-recursive) lock via histogram(). The copy is load-
  // bearing either way: Percentile() sorts lazily, mutating the instance.
  static HistogramSummary SummaryOf(Percentiles pct);

  mutable Mutex mu_;
  std::map<std::string, std::int64_t> counters_ GUARDED_BY(mu_);
  std::map<std::string, Percentiles> histograms_ GUARDED_BY(mu_);
};

}  // namespace deepplan

#endif  // SRC_OBS_METRICS_REGISTRY_H_
