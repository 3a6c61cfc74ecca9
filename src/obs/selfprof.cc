#include "src/obs/selfprof.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "src/util/json.h"
#include "src/util/logging.h"

namespace deepplan {
namespace selfprof {

namespace internal {
thread_local SelfProfiler* g_lane = nullptr;
}  // namespace internal

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kTotal:
      return "total";
    case Phase::kSetup:
      return "point.setup";
    case Phase::kWorkloadGen:
      return "workload.generate";
    case Phase::kWarmup:
      return "server.warmup";
    case Phase::kSimDispatch:
      return "sim.dispatch";
    case Phase::kColdStart:
      return "engine.cold_start";
    case Phase::kFairShare:
      return "fabric.fair_share";
    case Phase::kExecStream:
      return "exec.stream";
    case Phase::kValidate:
      return "check.validate";
    case Phase::kJournalSerialize:
      return "journal.serialize";
    case Phase::kTraceSerialize:
      return "trace.serialize";
    case Phase::kMetricsSnapshot:
      return "metrics.snapshot";
    case Phase::kReportRender:
      return "report.render";
  }
  return "?";
}

const char* CounterName(Counter counter) {
  switch (counter) {
    case Counter::kEventsDispatched:
      return "events_dispatched";
    case Counter::kValidatorChecks:
      return "validator_checks";
    case Counter::kHeartbeats:
      return "heartbeats";
    case Counter::kColdFastForward:
      return "engine.cold_fast_forward";
    case Counter::kColdMaterialized:
      return "engine.cold_materialized";
    case Counter::kInlineEventsDispatched:
      return "inline_events_dispatched";
  }
  return "?";
}

bool CounterDeterministic(Counter counter) {
  // Heartbeat cadence is a function of real time, not of the simulated run.
  return counter != Counter::kHeartbeats;
}

std::int64_t MonotonicNowNs() {
  // deepplan-lint: allow(raw-entropy, the self-profiler's one monotonic clock read; results live only under *_ns keys the determinism gates strip)
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

namespace {

std::int64_t ReadProcStatusKb(const char* key) {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  if (!status) {
    return 0;
  }
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoll(line.c_str() + key_len, nullptr, 10);
    }
  }
  return 0;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

std::int64_t CurrentRssKb() { return ReadProcStatusKb("VmRSS:"); }
std::int64_t PeakRssKb() { return ReadProcStatusKb("VmHWM:"); }

std::int64_t ProcessCpuNs() {
#if defined(__unix__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  const auto ns = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
#else
  return 0;
#endif
}

SelfProfiler::SelfProfiler() {
  Node root;
  root.phase = Phase::kTotal;
  root.parent = -1;
  root.child.fill(-1);
  nodes_.push_back(root);
}

std::int32_t SelfProfiler::FindOrAddChild(std::int32_t parent, Phase phase) {
  const auto slot = static_cast<std::size_t>(phase);
  const std::int32_t existing = nodes_[static_cast<std::size_t>(parent)].child[slot];
  if (existing >= 0) {
    return existing;
  }
  Node node;
  node.phase = phase;
  node.parent = parent;
  node.child.fill(-1);
  const auto index = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);
  nodes_[static_cast<std::size_t>(parent)].child[slot] = index;
  return index;
}

void SelfProfiler::MergeSubtree(std::int32_t dst, const SelfProfiler& other,
                                std::int32_t src) {
  const Node& from = other.nodes_[static_cast<std::size_t>(src)];
  Node& to = nodes_[static_cast<std::size_t>(dst)];
  to.count += from.count;
  to.sampled += from.sampled;
  to.inclusive_ns += from.inclusive_ns;
  for (int slot = 0; slot < kNumPhases; ++slot) {
    const std::int32_t child = from.child[static_cast<std::size_t>(slot)];
    if (child >= 0) {
      const std::int32_t mine =
          FindOrAddChild(dst, other.nodes_[static_cast<std::size_t>(child)].phase);
      MergeSubtree(mine, other, child);
    }
  }
}

void SelfProfiler::Merge(const SelfProfiler& other) {
  DP_CHECK(closed());
  DP_CHECK(other.closed());
  MergeSubtree(0, other, 0);
  for (int c = 0; c < kNumCounters; ++c) {
    counters_[c] += other.counters_[c];
  }
}

namespace {

std::uint64_t EstimatedNs(const SelfProfiler::Node& node) {
  if (node.sampled == 0) {
    return 0;
  }
  if (node.sampled == node.count) {
    return node.inclusive_ns;
  }
  return static_cast<std::uint64_t>(
      static_cast<double>(node.inclusive_ns) *
      (static_cast<double>(node.count) / static_cast<double>(node.sampled)));
}

std::string NodeJson(const SelfProfiler& lane, std::int32_t index,
                     bool deterministic) {
  const SelfProfiler::Node& node =
      lane.nodes()[static_cast<std::size_t>(index)];
  JsonObject out;
  out.Set("phase", PhaseName(node.phase))
      .Set("count", static_cast<std::int64_t>(node.count))
      .Set("sampled", static_cast<std::int64_t>(node.sampled));
  if (!deterministic) {
    std::uint64_t children_ns = 0;
    for (int slot = 0; slot < kNumPhases; ++slot) {
      const std::int32_t child = node.child[static_cast<std::size_t>(slot)];
      if (child >= 0) {
        children_ns +=
            lane.nodes()[static_cast<std::size_t>(child)].inclusive_ns;
      }
    }
    // The suppression rule (timed entries only run under timed ancestors)
    // makes this subtraction exact and non-negative; the selfprof lint
    // re-checks it on every report.
    DP_CHECK(children_ns <= node.inclusive_ns);
    out.Set("inclusive_ns", static_cast<std::int64_t>(node.inclusive_ns))
        .Set("exclusive_ns",
             static_cast<std::int64_t>(node.inclusive_ns - children_ns))
        .Set("estimated_ns", static_cast<std::int64_t>(EstimatedNs(node)));
  }
  JsonArray children;
  for (int slot = 0; slot < kNumPhases; ++slot) {
    const std::int32_t child = node.child[static_cast<std::size_t>(slot)];
    if (child >= 0) {
      children.AddRaw(NodeJson(lane, child, deterministic));
    }
  }
  if (!children.empty()) {
    out.SetRaw("children", children.Render());
  }
  return out.Render();
}

std::string CountersJson(const SelfProfiler& lane, bool deterministic) {
  JsonObject out;
  for (int c = 0; c < kNumCounters; ++c) {
    const auto counter = static_cast<Counter>(c);
    if (deterministic && !CounterDeterministic(counter)) {
      continue;
    }
    out.Set(CounterName(counter),
            static_cast<std::int64_t>(lane.counter(counter)));
  }
  return out.Render();
}

std::string LaneJson(const LaneView& view, bool deterministic) {
  DP_CHECK(view.lane != nullptr);
  DP_CHECK(view.lane->closed());  // reports are built from finished lanes
  JsonObject out;
  out.Set("name", view.name)
      .SetRaw("counters", CountersJson(*view.lane, deterministic))
      .SetRaw("tree", NodeJson(*view.lane, 0, deterministic));
  return out.Render();
}

std::string BuildReport(const std::string& label,
                        const std::vector<LaneView>& lanes,
                        bool deterministic) {
  JsonObject body;
  body.Set("schema_version", std::int64_t{kSelfprofSchemaVersion})
      .Set("label", label);
  JsonArray lane_array;
  SelfProfiler aggregate;
  for (const LaneView& view : lanes) {
    lane_array.AddRaw(LaneJson(view, deterministic));
    aggregate.Merge(*view.lane);
  }
  body.SetRaw("lanes", lane_array.Render());
  body.SetRaw("aggregate",
              LaneJson(LaneView{"aggregate", &aggregate}, deterministic));
  if (!deterministic) {
    body.SetRaw("host", JsonObject()
                            .Set("rss_kb", CurrentRssKb())
                            .Set("rss_peak_kb", PeakRssKb())
                            .Render());
  }
  JsonObject top;
  top.SetRaw("selfprof_report", body.Render());
  return top.Render();
}

}  // namespace

std::string ReportJson(const std::string& label,
                       const std::vector<LaneView>& lanes) {
  return BuildReport(label, lanes, /*deterministic=*/false);
}

std::string DeterministicReportJson(const std::string& label,
                                    const std::vector<LaneView>& lanes) {
  return BuildReport(label, lanes, /*deterministic=*/true);
}

}  // namespace selfprof
}  // namespace deepplan
