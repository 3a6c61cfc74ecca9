// Benchmark binary: replays one named serving workload through the public
// library API (src/deepplan.h) and measures the simulator's host cost.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scratch <dir>
//
// A run cycles through kTraces traces generated from --seed. Untraced
// (--trace 0): repeats [set-up, replay, what-if query] until --seconds have
// passed and reports simulated requests per host second of Simulator::Run,
// set-up seconds, the process's peak RSS and the host seconds of one what-if
// query, each timed as the sum of its fastest segments (WORKLOADS.md says
// why). Traced (--trace 1, the perfbench_traced binary): alternates untraced
// and traced replays, times calls into each layer from outside (spans kept
// in memory, written to <scratch> at the end), installs a selfprof lane for
// exact per-phase counts, counts heap allocations, and reports the per-layer
// metrics listed in perfbench/WORKLOADS.md.
//
// Every replay is checked: each generated request completed exactly once,
// the simulator drained, and all replays of one trace produced identical
// outputs. The last stdout line is one JSON object with the outputs' digest
// (which perfbench/run.py compares against the pinned reference), the
// attempted/failed request counts, and the metrics.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "perfbench/alloc_counter.h"
#include "src/deepplan.h"

namespace perfbench {
namespace {

using namespace deepplan;

std::int64_t NowNs() { return selfprof::MonotonicNowNs(); }

// ---------------------------------------------------------------------------
// Workloads (the rationale for each is in perfbench/WORKLOADS.md).

enum class Generator { kSynthetic, kAzure };

struct Workload {
  const char* name;
  Generator generator;
  int instances;
  double rate_per_sec;   // simulated open-loop arrival rate
  std::size_t requests;  // kSynthetic: exact request count of each trace
  double seconds;        // kAzure: simulated length of each trace
  bool journal;          // every measured replay records a journal
  std::size_t probe;     // !journal: requests in each what-if probe journal
};

constexpr Workload kWorkloads[] = {
    {"warm_steady", Generator::kSynthetic, 120, 120.0, 25000, 0.0, false,
     25000},
    {"sparse_cold", Generator::kSynthetic, 135, 120.0, 12500, 0.0, false,
     2500},
    {"burst_mixed", Generator::kAzure, 180, 120.0, 0, 60.0, false, 1500},
    {"journal_whatif", Generator::kSynthetic, 135, 120.0, 4000, 0.0, true, 0},
};

// A run cycles through kTraces traces generated from its seed. Short traces
// give many short timing samples; several of them keep the total input
// large enough that the seed barely moves the work done.
constexpr int kTraces = 8;

std::uint64_t TraceSeed(std::uint64_t seed, int k) {
  return seed * kTraces + static_cast<std::uint64_t>(k);
}

constexpr double kZipfExponent = 0.9;
constexpr Strategy kStrategy = Strategy::kDeepPlanPtDha;
constexpr Nanos kSlo = Millis(100);
constexpr const char* kWhatIfSpec = "pcie=2";

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

Trace GenerateTrace(const Workload& w, std::uint64_t seed) {
  if (w.generator == Generator::kSynthetic) {
    SyntheticScaleOptions o;
    o.num_requests = w.requests;
    o.rate_per_sec = w.rate_per_sec;
    o.num_instances = w.instances;
    o.zipf_exponent = kZipfExponent;
    o.seed = seed;
    return GenerateSyntheticScaleTrace(o);
  }
  AzureTraceOptions o;
  o.num_instances = w.instances;
  o.duration = Seconds(w.seconds);
  o.target_rate_per_sec = w.rate_per_sec;
  o.zipf_exponent = kZipfExponent;
  o.seed = seed;
  return GenerateAzureTrace(o);
}

// Model types and instance counts, in registration order.
std::vector<std::pair<Model, int>> ModelMix(const Workload& w) {
  if (w.generator == Generator::kSynthetic) {
    return {{ModelZoo::BertBase(), w.instances}};
  }
  // Figure 15's BERT-Base : RoBERTa-Base : GPT-2 = 4:4:1 mix.
  const int unit = w.instances / 9;
  return {{ModelZoo::BertBase(), 4 * unit},
          {ModelZoo::RobertaBase(), 4 * unit},
          {ModelZoo::Gpt2(), w.instances - 8 * unit}};
}

// ---------------------------------------------------------------------------
// Spans: one record per call into a layer's public function, kept in memory
// and written out once the run ends. Per-request Submit calls are folded
// into one aggregate child of sim.run (count + total).

struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;
  std::uint64_t count = 1;
};

class SpanLog {
 public:
  int Begin(const std::string& name, int parent = -1) {
    spans_.push_back(Span{name, parent, NowNs(), 0, 1});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.duration_ns = NowNs() - s.start_ns;
  }
  void AddAggregate(const std::string& name, int parent, std::uint64_t count,
                    std::int64_t total_ns) {
    const std::int64_t start = spans_[static_cast<std::size_t>(parent)].start_ns;
    spans_.push_back(Span{name, parent, start, total_ns, count});
  }
  // One row per span name, in first-seen order: calls, total and self time.
  void PrintTable() const {
    std::vector<std::string> names;
    for (const Span& s : spans_) {
      if (std::find(names.begin(), names.end(), s.name) == names.end()) {
        names.push_back(s.name);
      }
    }
    std::printf("%-26s %8s %12s %12s\n", "span", "calls", "total_ms",
                "self_ms");
    for (const std::string& name : names) {
      std::uint64_t calls = 0;
      std::int64_t total = 0, self = 0;
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name) {
          calls += spans_[i].count;
          total += spans_[i].duration_ns;
          self += SelfNs(static_cast<int>(i));
        }
      }
      std::printf("%-26s %8" PRIu64 " %12.3f %12.3f\n", name.c_str(), calls,
                  static_cast<double>(total) / 1e6,
                  static_cast<double>(self) / 1e6);
    }
  }

  // Span duration minus the time its direct children cover.
  std::int64_t SelfNs(int id) const {
    std::int64_t self = spans_[static_cast<std::size_t>(id)].duration_ns;
    for (const Span& s : spans_) {
      if (s.parent == id) {
        self -= s.duration_ns;
      }
    }
    return self;
  }

  std::string Json() const {
    JsonArray out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out.AddRaw(JsonObject()
                     .Set("id", static_cast<std::int64_t>(i))
                     .Set("name", s.name)
                     .Set("parent", s.parent)
                     .Set("start_ns", s.start_ns - spans_.front().start_ns)
                     .Set("duration_ns", s.duration_ns)
                     .Set("self_ns", SelfNs(static_cast<int>(i)))
                     .Set("count", static_cast<std::int64_t>(s.count))
                     .Render());
    }
    return out.Render();
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// One replay: set-up (trace generation, server construction, model
// registration, instances, warmup) then Simulator::Run over the trace.

// Segments per replay for the best-segment throughput estimate.
constexpr std::size_t kSegments = 128;

struct ReplayOptions {
  bool traced = false;        // selfprof lane + Submit timing + spans
  bool count_fabric = false;  // MetricsRegistry on the fabric (fabric.bytes)
  std::string journal_path;   // non-empty: stream a binary journal there
  SpanLog* spans = nullptr;   // traced: where the replay's spans go
  std::size_t prefix = 0;     // >0: replay only the first `prefix` arrivals
};

struct ReplayResult {
  // Host time.
  // Set-up split into trace generation, server build (construction, model
  // registration, instances, recorders) and warmup.
  std::vector<std::int64_t> setup_segment_ns;
  std::int64_t gen_ns = 0;
  std::int64_t register_ns = 0;  // summed over RegisterModelType calls
  int models = 0;
  std::int64_t warmup_ns = 0;
  std::int64_t run_ns = 0;  // first arrival event -> Run returns
  // Run split into kSegments stretches of equal arrival count: host time of
  // each (the last one includes the drain after the final arrival).
  std::vector<std::int64_t> segment_ns;
  std::int64_t submit_ns = 0;
  std::vector<std::uint32_t> submit_samples;  // traced: ns per Submit
  std::int64_t finish_ns = 0;                 // JournalWriter::Finish
  // Outputs (a pure function of workload + seed).
  std::size_t requests = 0;
  std::size_t completed = 0;
  std::size_t cold_starts = 0;
  std::size_t evictions = 0;
  double p99_ms = 0.0;
  double goodput = 0.0;
  std::uint64_t records_hash = 0;
  double overlap_share = 0.0;  // cold starts whose provisioning overlaps
  std::uint64_t events = 0;
  std::size_t slot_peak = 0;
  std::vector<std::string> model_names;
  JournalTotals journal;
  std::uint64_t journal_bytes = 0;
  // Counts.
  std::uint64_t allocations = 0;  // during Run (traced binary only)
  std::int64_t fabric_bytes = 0;  // count_fabric only
  selfprof::SelfProfiler lane;    // traced only
  // Invariant failures (empty = every check passed).
  std::vector<std::string> errors;
};

// FNV-1a over the fields of every request record, in completion order.
class Fnv {
 public:
  void Add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// Share of cold starts whose provisioning interval [start + evict,
// start + evict + load) overlaps another cold start's.
double OverlapShare(const std::vector<RequestRecord>& records) {
  std::vector<std::pair<Nanos, Nanos>> iv;
  for (const RequestRecord& r : records) {
    if (r.cold) {
      const Nanos begin = r.start + r.evict;
      iv.emplace_back(begin, begin + r.load);
    }
  }
  if (iv.empty()) {
    return 0.0;
  }
  std::sort(iv.begin(), iv.end());
  std::size_t overlapped = 0;
  Nanos max_end = iv.front().first;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    const bool with_earlier = i > 0 && iv[i].first < max_end;
    const bool with_later = i + 1 < iv.size() && iv[i + 1].first < iv[i].second;
    overlapped += (with_earlier || with_later) ? 1 : 0;
    max_end = std::max(max_end, iv[i].second);
  }
  return static_cast<double>(overlapped) / static_cast<double>(iv.size());
}

void CheckOutputs(const Trace& trace, int num_instances, const Simulator& sim,
                  const ServingMetrics& m, ReplayResult* r) {
  if (m.count() != trace.size()) {
    r->errors.push_back("completed " + std::to_string(m.count()) + " of " +
                        std::to_string(trace.size()) + " requests");
  }
  if (!sim.idle()) {
    r->errors.push_back("simulator still holds events after Run");
  }
  std::vector<std::size_t> done(static_cast<std::size_t>(num_instances), 0);
  for (const RequestRecord& rec : m.records()) {
    if (rec.instance < 0 || rec.instance >= num_instances ||
        rec.start < rec.arrival || rec.completion < rec.start ||
        rec.ExecTime() < 0 || (!rec.cold && rec.evictions != 0)) {
      r->errors.push_back("malformed request record");
      return;
    }
    ++done[static_cast<std::size_t>(rec.instance)];
  }
  if (done != trace.PerInstanceCounts(num_instances)) {
    r->errors.push_back("per-instance completions differ from the trace");
  }
}

ReplayResult RunReplay(const Workload& w, std::uint64_t seed,
                       const ReplayOptions& options) {
  ReplayResult r;
  SpanLog* spans = options.traced ? options.spans : nullptr;
  auto open_span = [&](const char* name, int parent = -1) {
    return spans != nullptr ? spans->Begin(name, parent) : -1;
  };
  auto close_span = [&](int id) {
    if (spans != nullptr) {
      spans->End(id);
    }
  };
  {
    selfprof::InstallLane lane(options.traced ? &r.lane : nullptr);
    const std::int64_t setup_start = NowNs();
    const int setup_span = open_span("setup");

    int span = open_span("workload.generate", setup_span);
    Trace trace = GenerateTrace(w, seed);
    close_span(span);
    r.gen_ns = NowNs() - setup_start;
    if (options.prefix > 0 && options.prefix < trace.size()) {
      trace = Trace(std::vector<Arrival>(
          trace.arrivals().begin(),
          trace.arrivals().begin() + static_cast<std::ptrdiff_t>(options.prefix)));
    }

    const Topology topology = Topology::P3_8xlarge();
    const PerfModel perf(topology.gpu(), topology.pcie());
    Simulator sim;
    const bool journal = !options.journal_path.empty();
    CausalGraph causal(journal);
    JournalWriter writer;
    MetricsRegistry registry;
    ServerOptions server_options;
    server_options.strategy = kStrategy;
    server_options.slo = kSlo;
    span = open_span("server.construct", setup_span);
    Server server(&sim, topology, perf, server_options);
    close_span(span);
    for (auto& [model, count] : ModelMix(w)) {
      r.model_names.push_back(model.name());
      const std::int64_t t = NowNs();
      span = open_span("server.register_model", setup_span);
      const int type = server.RegisterModelType(std::move(model));
      close_span(span);
      r.register_ns += NowNs() - t;
      ++r.models;
      server.AddInstances(type, count);
    }
    if (journal) {
      const bool opened = writer.Open(options.journal_path);
      DP_CHECK(opened && "cannot open the journal file");
      causal.AttachSink(&writer);
      server.set_causal(&causal, causal.RegisterProcess(w.name));
    }
    if (options.count_fabric) {
      server.set_telemetry(nullptr, &registry);
    }
    const std::int64_t warmup_start = NowNs();
    span = open_span("server.warmup", setup_span);
    server.Warmup();
    close_span(span);
    r.warmup_ns = NowNs() - warmup_start;
    close_span(setup_span);
    r.setup_segment_ns = {r.gen_ns, warmup_start - setup_start - r.gen_ns,
                          r.warmup_ns};

    // Chained feeder (as in bench/scaling_common.h): each arrival schedules
    // the next, so pending events track server activity, not trace length.
    struct Feeder {
      const std::vector<Arrival>* arrivals;
      Simulator* sim;
      Server* server;
      std::vector<std::uint32_t>* submit_samples;  // nullptr = untimed
      std::vector<std::int64_t>* checkpoints;
      std::size_t segment_requests;
      std::size_t next = 0;
      std::int64_t submit_ns = 0;
      void ScheduleNext() {
        if (next < arrivals->size()) {
          const Arrival& a = (*arrivals)[next++];
          sim->ScheduleAt(a.time, [this, instance = a.instance] {
            Arrive(instance);
          });
        }
      }
      void Arrive(int instance) {
        if ((next - 1) % segment_requests == 0) {
          checkpoints->push_back(NowNs());
        }
        if (submit_samples != nullptr) {
          const std::int64_t t = NowNs();
          server->Submit(instance);
          const std::int64_t d = NowNs() - t;
          submit_ns += d;
          submit_samples->push_back(static_cast<std::uint32_t>(d));
        } else {
          server->Submit(instance);
        }
        ScheduleNext();
      }
    };
    if (options.traced) {
      r.submit_samples.reserve(trace.size());
    }
    std::vector<std::int64_t> checkpoints;
    const std::size_t segment_requests =
        std::max<std::size_t>(1, (trace.size() + kSegments - 1) / kSegments);
    checkpoints.reserve(kSegments + 1);
    Feeder feeder{&trace.arrivals(), &sim, &server,
                  options.traced ? &r.submit_samples : nullptr, &checkpoints,
                  segment_requests};
    feeder.ScheduleNext();
    const int run_span = open_span("sim.run");
    const std::uint64_t allocs_before = AllocationCount();
    sim.Run();
    r.allocations = AllocationCount() - allocs_before;
    close_span(run_span);
    checkpoints.push_back(NowNs());
    r.run_ns = checkpoints.back() - checkpoints.front();
    for (std::size_t i = 1; i < checkpoints.size(); ++i) {
      r.segment_ns.push_back(checkpoints[i] - checkpoints[i - 1]);
    }
    r.submit_ns = feeder.submit_ns;
    if (spans != nullptr) {
      spans->AddAggregate("server.submit", run_span, r.submit_samples.size(),
                          r.submit_ns);
    }

    if (journal) {
      causal.FlushOpenRequests();
      span = open_span("journal.finish");
      const std::int64_t t = NowNs();
      const bool finished = writer.Finish();
      r.finish_ns = NowNs() - t;
      close_span(span);
      if (!finished) {
        r.errors.push_back("journal write failed: " + writer.error());
      }
      r.journal = writer.totals();
      r.journal_bytes = writer.bytes_written();
      if (r.journal.requests != trace.size() ||
          r.journal.incomplete_requests != 0) {
        r.errors.push_back("journal holds " +
                           std::to_string(r.journal.requests) +
                           " requests for a trace of " +
                           std::to_string(trace.size()));
      }
    }

    const ServingMetrics& m = server.metrics();
    CheckOutputs(trace, server.num_instances(), sim, m, &r);
    r.requests = trace.size();
    r.completed = m.count();
    r.cold_starts = m.ColdStartCount();
    r.evictions = m.EvictionCount();
    r.p99_ms = m.LatencyPercentileMs(99);
    r.goodput = m.Goodput(kSlo);
    Fnv h;
    for (const RequestRecord& rec : m.records()) {
      for (const std::int64_t v :
           {rec.arrival, rec.start, rec.completion, rec.evict, rec.load,
            std::int64_t{rec.instance}, std::int64_t{rec.cold},
            std::int64_t{rec.evictions}}) {
        h.Add(v);
      }
    }
    r.records_hash = h.value();
    r.overlap_share = OverlapShare(m.records());
    r.events = sim.events_dispatched();
    r.slot_peak = sim.event_queue().slot_capacity();
    if (options.count_fabric) {
      r.fabric_bytes = registry.counter("fabric.bytes");
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// What-if query: WindowedJournal::Open plus one Replay of kWhatIfSpec.

struct WhatIfResult {
  std::int64_t open_ns = 0;
  std::int64_t replay_ns = 0;
  std::size_t requests = 0;
  std::size_t predicted = 0;  // requests with a predicted latency
  std::size_t max_resident = 0;
  std::uint64_t latency_hash = 0;
  std::int64_t latency_sum_ns = 0;
  std::string error;
};

WhatIfResult QueryWhatIf(const std::string& path, SpanLog* spans) {
  WhatIfResult q;
  WhatIfExperiment experiment;
  std::string error;
  const bool parsed = ParseWhatIfExperiment(kWhatIfSpec, &experiment, &error);
  DP_CHECK(parsed);
  WindowedJournal journal;
  int span = spans != nullptr ? spans->Begin("whatif.open") : -1;
  std::int64_t t = NowNs();
  if (!journal.Open(path, &error)) {
    q.error = "cannot open journal: " + error;
    return q;
  }
  q.open_ns = NowNs() - t;
  if (spans != nullptr) {
    spans->End(span);
    span = spans->Begin("whatif.replay");
  }
  t = NowNs();
  const WhatIfReplay replay = journal.Replay(experiment);
  q.replay_ns = NowNs() - t;
  if (spans != nullptr) {
    spans->End(span);
  }
  q.requests = journal.requests().size();
  q.max_resident = journal.max_resident_requests();
  Fnv h;
  for (const Nanos latency : replay.latency) {
    h.Add(latency);
    if (latency >= 0) {
      ++q.predicted;
      q.latency_sum_ns += latency;
    }
  }
  q.latency_hash = h.value();
  if (q.predicted != q.requests) {
    q.error = "what-if predicted " + std::to_string(q.predicted) + " of " +
              std::to_string(q.requests) + " requests";
  }
  return q;
}

// ---------------------------------------------------------------------------
// Isolated cold start: host time of one Engine::RunCold plus Simulator::Run
// on a fresh simulator, for one model under the server's strategy.

std::int64_t IsolatedColdNs(const Model& model, int repeats, SpanLog* spans) {
  const Topology topology = Topology::P3_8xlarge();
  const PerfModel perf(topology.gpu(), topology.pcie());
  const ModelProfile profile = Profiler(&perf).Profile(model);
  PipelineOptions pipeline;
  pipeline.nvlink = topology.nvlink();
  const int degree = StrategyDegree(kStrategy, topology, /*primary=*/0);
  const ExecutionPlan plan =
      MakeStrategyPlan(kStrategy, profile, degree, pipeline);
  std::vector<GpuId> secondaries;
  if (plan.num_partitions() > 1) {
    secondaries = TransmissionPlanner::ChooseSecondaries(
        topology, 0, plan.num_partitions());
  }
  std::vector<std::int64_t> samples;
  for (int i = 0; i < repeats; ++i) {
    Simulator sim;
    ServerFabric fabric(&sim, &topology);
    Engine engine(&sim, &fabric, &perf);
    bool done = false;
    const int span = spans->Begin("engine.isolated_cold");
    const std::int64_t t = NowNs();
    engine.RunCold(model, plan, 0, secondaries, MakeColdRunOptions(kStrategy),
                   [&done](const InferenceResult&) { done = true; });
    sim.Run();
    samples.push_back(NowNs() - t);
    spans->End(span);
    DP_CHECK(done);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// ---------------------------------------------------------------------------
// Reporting helpers.

double Median(std::vector<double> v) {
  DP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Element-wise minimum of per-segment host times over the replays of one
// trace: every replay does identical work segment by segment.
void KeepFastest(const std::vector<std::int64_t>& segments,
                 std::vector<std::int64_t>* best) {
  if (best->empty()) {
    *best = segments;
    return;
  }
  DP_CHECK(best->size() == segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    (*best)[i] = std::min((*best)[i], segments[i]);
  }
}

double Sum(const std::vector<std::int64_t>& ns) {
  std::int64_t total = 0;
  for (const std::int64_t v : ns) {
    total += v;
  }
  return static_cast<double>(total);
}

std::string FullNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    obj_.SetRaw(name, JsonObject().SetRaw("value", FullNum(value))
                          .Set("unit", unit)
                          .Render());
    std::printf("  %-36s %16.6g %s\n", name.c_str(), value, unit.c_str());
  }
  std::string Render() const { return obj_.Render(); }

 private:
  JsonObject obj_;
};

// Aggregated selfprof figures for one phase: exact entry count, and host
// time (an estimate for the sampled phases) over its outermost occurrences.
struct PhaseTotals {
  std::uint64_t count = 0;
  double ns = 0.0;
};

PhaseTotals SumPhase(const selfprof::SelfProfiler& lane, selfprof::Phase p) {
  PhaseTotals t;
  const auto& nodes = lane.nodes();
  for (const auto& node : nodes) {
    if (node.phase != p) {
      continue;
    }
    t.count += node.count;
    bool nested = false;
    for (int a = node.parent; a >= 0; a = nodes[static_cast<std::size_t>(a)].parent) {
      nested = nested || nodes[static_cast<std::size_t>(a)].phase == p;
    }
    if (!nested && node.sampled > 0) {
      t.ns += static_cast<double>(node.inclusive_ns) *
              static_cast<double>(node.count) /
              static_cast<double>(node.sampled);
    }
  }
  return t;
}

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0.0;
}

// Output digest of one run: each field lists its value per trace.
std::string Digest(const std::vector<ReplayResult>& runs,
                   const std::vector<ReplayResult>& journals,
                   const std::vector<WhatIfResult>& queries) {
  auto ints = [](const std::vector<ReplayResult>& of, auto field) {
    JsonArray a;
    for (const ReplayResult& r : of) {
      a.Add(static_cast<std::int64_t>(field(r)));
    }
    return a.Render();
  };
  JsonArray p99, goodput, records, answers, answer_sums;
  for (const ReplayResult& r : runs) {
    p99.Add(r.p99_ms);
    goodput.Add(r.goodput);
    records.Add(Hex(r.records_hash));
  }
  for (const WhatIfResult& q : queries) {
    answers.Add(Hex(q.latency_hash));
    answer_sums.Add(q.latency_sum_ns);
  }
  return JsonObject()
      .SetRaw("completed", ints(runs, [](const ReplayResult& r) { return r.completed; }))
      .SetRaw("cold_starts",
              ints(runs, [](const ReplayResult& r) { return r.cold_starts; }))
      .SetRaw("evictions", ints(runs, [](const ReplayResult& r) { return r.evictions; }))
      .SetRaw("p99_ms", p99.Render())
      .SetRaw("goodput", goodput.Render())
      .SetRaw("records_fnv", records.Render())
      .SetRaw("events_dispatched",
              ints(runs, [](const ReplayResult& r) { return r.events; }))
      .SetRaw("journal_nodes",
              ints(journals, [](const ReplayResult& r) { return r.journal.nodes; }))
      .SetRaw("journal_edges",
              ints(journals, [](const ReplayResult& r) { return r.journal.edges; }))
      .SetRaw("journal_bytes",
              ints(journals, [](const ReplayResult& r) { return r.journal_bytes; }))
      .SetRaw("whatif_latency_sum_ns", answer_sums.Render())
      .SetRaw("whatif_latency_fnv", answers.Render())
      .Render();
}

// Moves this (single-threaded) process to the next CPU it may run on, one
// step per call. On a shared host the CPUs are not equally disturbed at any
// moment, and the scheduler would otherwise keep a whole run on one of them;
// rotating lets the fastest-segment estimate see every CPU.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) {
          cpus_.push_back(c);
        }
      }
    }
  }
  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Outputs that must repeat exactly between replays of one seed.
bool SameOutputs(const ReplayResult& a, const ReplayResult& b) {
  return a.requests == b.requests && a.completed == b.completed &&
         a.cold_starts == b.cold_starts && a.evictions == b.evictions &&
         a.records_hash == b.records_hash && a.events == b.events &&
         a.journal == b.journal && a.journal_bytes == b.journal_bytes;
}

bool SameAnswer(const WhatIfResult& a, const WhatIfResult& b) {
  return a.latency_hash == b.latency_hash && a.predicted == b.predicted;
}

void PrintProperties(const Workload& w, const ReplayResult& r) {
  std::string models;
  for (const std::string& m : r.model_names) {
    models += (models.empty() ? "" : ",") + m;
  }
  std::printf(
      "workload %s: %zu requests, models %s, cold-start share %.4f, "
      "overlapping cold starts %.4f, events/request %.3f, evictions %zu, "
      "p99 %.3f ms, goodput %.4f\n",
      w.name, r.requests, models.c_str(),
      PerUnit(static_cast<double>(r.cold_starts),
              static_cast<double>(r.requests)),
      r.overlap_share,
      PerUnit(static_cast<double>(r.events), static_cast<double>(r.requests)),
      r.evictions, r.p99_ms, r.goodput);
}

struct RunState {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  // Counts one replay; a replay with any failed check fails all its
  // requests. `first` is an earlier replay of the same trace, if any.
  void Account(const ReplayResult& r, const ReplayResult* first) {
    attempted += r.requests;
    std::vector<std::string> e = r.errors;
    if (first != nullptr && !SameOutputs(*first, r)) {
      e.push_back("replay outputs differ from an earlier replay of the trace");
    }
    if (!e.empty()) {
      failed += r.requests;
      errors.insert(errors.end(), e.begin(), e.end());
    }
  }
  void AccountQuery(const WhatIfResult& q, const WhatIfResult* first) {
    std::string e = q.error;
    if (e.empty() && first != nullptr && !SameAnswer(*first, q)) {
      e = "what-if answers differ between queries of one journal";
    }
    if (!e.empty()) {
      failed += q.requests;
      errors.push_back(e);
    }
  }
  // Prints the failed checks and the result line.
  void Report(const Workload& w, std::uint64_t seed, int trace, int replays,
              const std::string& digest, const Metrics& metrics) const {
    for (const std::string& e : errors) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    std::printf("%s\n",
                JsonObject()
                    .Set("workload", w.name)
                    .Set("seed", static_cast<std::int64_t>(seed))
                    .Set("trace", trace)
                    .Set("replays", replays)
                    .Set("attempted", static_cast<std::int64_t>(attempted))
                    .Set("failed", static_cast<std::int64_t>(failed))
                    .SetRaw("digest", digest)
                    .SetRaw("metrics", metrics.Render())
                    .Render()
                    .c_str());
  }
};

std::string JournalPath(const std::string& scratch, const Workload& w, int k) {
  return scratch + "/journal_" + w.name + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(k) + ".dpjl";
}

// The what-if query of trace k reads a journal of that trace. journal_whatif
// records the whole trace in every measured replay; the other workloads
// record the trace's first w.probe requests once, here, before measuring
// (their measured replays record nothing).
std::vector<ReplayResult> RecordJournals(const Workload& w, std::uint64_t seed,
                                         const std::string& scratch,
                                         bool traced, SpanLog* spans,
                                         RunState* state) {
  std::vector<ReplayResult> out;
  for (int k = 0; k < kTraces; ++k) {
    ReplayOptions options;
    options.traced = traced;
    options.spans = spans;
    options.journal_path = JournalPath(scratch, w, k);
    options.prefix = w.probe;
    out.push_back(RunReplay(w, TraceSeed(seed, k), options));
    state->Account(out.back(), nullptr);
  }
  return out;
}

void RemoveJournals(const std::string& scratch, const Workload& w) {
  for (int k = 0; k < kTraces; ++k) {
    std::filesystem::remove(JournalPath(scratch, w, k));
  }
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

constexpr int kMaxReplays = 4000;

int RunEndToEnd(const Workload& w, std::uint64_t seed, double seconds,
                const std::string& scratch) {
  RunState state;
  const std::int64_t start = NowNs();
  std::vector<ReplayResult> journaled;
  if (!w.journal) {
    journaled = RecordJournals(w, seed, scratch, false, nullptr, &state);
  }
  // Per trace: the first replay and query (the reference for later ones),
  // and the fastest reading of every set-up, run and query segment.
  std::vector<ReplayResult> first(kTraces);
  std::vector<WhatIfResult> first_query(kTraces);
  std::vector<std::vector<std::int64_t>> best_setup(kTraces),
      best_run(kTraces), best_query(kTraces);
  std::vector<double> rps;
  CpuRotation cpus;
  int replays = 0;
  while (replays < kMaxReplays &&
         (replays < 2 * kTraces ||
          static_cast<double>(NowNs() - start) < seconds * 1e9)) {
    const int k = replays % kTraces;
    const bool repeat = replays >= kTraces;
    cpus.Next();
    ReplayOptions options;
    if (w.journal) {
      options.journal_path = JournalPath(scratch, w, k);
    }
    ReplayResult r = RunReplay(w, TraceSeed(seed, k), options);
    state.Account(r, repeat ? &first[static_cast<std::size_t>(k)] : nullptr);
    const WhatIfResult q = QueryWhatIf(JournalPath(scratch, w, k), nullptr);
    state.AccountQuery(q,
                       repeat ? &first_query[static_cast<std::size_t>(k)] : nullptr);
    const auto kk = static_cast<std::size_t>(k);
    KeepFastest(r.setup_segment_ns, &best_setup[kk]);
    KeepFastest(r.segment_ns, &best_run[kk]);
    KeepFastest({q.open_ns, q.replay_ns}, &best_query[kk]);
    rps.push_back(static_cast<double>(r.completed) /
                  (static_cast<double>(r.run_ns) / 1e9));
    if (!repeat) {
      first[kk] = std::move(r);
      first_query[kk] = q;
    }
    ++replays;
  }
  RemoveJournals(scratch, w);

  std::size_t completed = 0;
  double run_ns = 0.0, setup_ns = 0.0, query_ns = 0.0;
  for (std::size_t k = 0; k < first.size(); ++k) {
    PrintProperties(w, first[k]);
    completed += first[k].completed;
    run_ns += Sum(best_run[k]);
    setup_ns += Sum(best_setup[k]);
    query_ns += Sum(best_query[k]);
    if (w.journal) {
      journaled.push_back(first[k]);
    }
  }
  std::printf("replays %d in %.3f s (%d traces); median single-replay "
              "%.1f requests/s\n",
              replays, static_cast<double>(NowNs() - start) / 1e9, kTraces,
              Median(rps));
  // Host speed on a shared machine drifts between fast and slow periods, so
  // each time is composed of the fastest reading of each of its segments
  // over the run's replays (see WORKLOADS.md).
  Metrics metrics;
  metrics.Add("requests_per_s",
              static_cast<double>(completed) / (run_ns / 1e9), "1/s");
  metrics.Add("setup_s", setup_ns / kTraces / 1e9, "s");
  metrics.Add("peak_rss_mb",
              static_cast<double>(selfprof::PeakRssKb()) / 1024.0, "MB");
  metrics.Add("whatif_query_s", query_ns / kTraces / 1e9, "s");
  state.Report(w, seed, 0, replays, Digest(first, journaled, first_query), metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

constexpr int kIsolatedColdRepeats = 9;

// Per-layer totals over one replay of every trace.
struct LayerTotals {
  double requests = 0, cold = 0, events = 0, evictions = 0, overlapped = 0;
  double gen_ns = 0, register_ns = 0, models = 0, warmup_ns = 0, run_ns = 0,
         submit_ns = 0, slot_peak = 0;
  std::vector<std::uint32_t> submit_samples;
  selfprof::SelfProfiler lane;

  void Add(const ReplayResult& r) {
    requests += static_cast<double>(r.requests);
    cold += static_cast<double>(r.cold_starts);
    events += static_cast<double>(r.events);
    evictions += static_cast<double>(r.evictions);
    overlapped += r.overlap_share * static_cast<double>(r.cold_starts);
    gen_ns += static_cast<double>(r.gen_ns);
    register_ns += static_cast<double>(r.register_ns);
    models += r.models;
    warmup_ns += static_cast<double>(r.warmup_ns);
    run_ns += static_cast<double>(r.run_ns);
    submit_ns += static_cast<double>(r.submit_ns);
    slot_peak = std::max(slot_peak, static_cast<double>(r.slot_peak));
    submit_samples.insert(submit_samples.end(), r.submit_samples.begin(),
                          r.submit_samples.end());
    lane.Merge(r.lane);
  }
};

int RunTraced(const Workload& w, std::uint64_t seed, double seconds,
              const std::string& scratch) {
  RunState state;
  SpanLog spans;
  std::vector<ReplayResult> first(kTraces);
  std::vector<std::vector<std::int64_t>> untraced_best(kTraces),
      traced_best(kTraces);
  LayerTotals traced;
  double allocations = 0.0;
  CpuRotation cpus;
  const std::int64_t start = NowNs();
  int pairs = 0;
  while (pairs < kMaxReplays &&
         (pairs < kTraces ||
          static_cast<double>(NowNs() - start) < seconds * 1e9)) {
    const int k = pairs % kTraces;
    const auto kk = static_cast<std::size_t>(k);
    const bool repeat = pairs >= kTraces;
    cpus.Next();
    ReplayOptions options;
    if (w.journal) {
      options.journal_path = JournalPath(scratch, w, k);
    }
    ReplayResult u = RunReplay(w, TraceSeed(seed, k), options);
    state.Account(u, repeat ? &first[kk] : nullptr);
    KeepFastest(u.segment_ns, &untraced_best[kk]);
    options.traced = true;
    options.spans = &spans;
    ReplayResult t = RunReplay(w, TraceSeed(seed, k), options);
    state.Account(t, repeat ? &first[kk] : &u);
    KeepFastest(t.segment_ns, &traced_best[kk]);
    if (!repeat) {
      // Layer figures come from the first traced replay of every trace.
      traced.Add(t);
      allocations += static_cast<double>(u.allocations);
      first[kk] = std::move(u);
    }
    ++pairs;
  }

  double fabric_bytes = 0.0;
  for (int k = 0; k < kTraces; ++k) {
    ReplayOptions options;
    options.count_fabric = true;
    if (w.journal) {
      options.journal_path = JournalPath(scratch, w, k);
    }
    const ReplayResult c = RunReplay(w, TraceSeed(seed, k), options);
    state.Account(c, &first[static_cast<std::size_t>(k)]);
    fabric_bytes += static_cast<double>(c.fabric_bytes);
  }

  // The obs layer: the journals the traced replays wrote, or on the
  // non-journal workloads one traced recording replay per trace.
  std::vector<ReplayResult> journaled =
      w.journal ? first
                : RecordJournals(w, seed, scratch, true, &spans, &state);
  std::vector<WhatIfResult> queries;
  double journal_requests = 0, journal_bytes = 0, finish_ns = 0;
  double open_ns = 0, replay_ns = 0, max_resident = 0;
  selfprof::SelfProfiler journal_lane;
  for (int k = 0; k < kTraces; ++k) {
    const ReplayResult& j = journaled[static_cast<std::size_t>(k)];
    if (!w.journal) {
      journal_lane.Merge(j.lane);
    }
    journal_requests += static_cast<double>(j.requests);
    journal_bytes += static_cast<double>(j.journal_bytes);
    finish_ns += static_cast<double>(j.finish_ns);
    queries.push_back(QueryWhatIf(JournalPath(scratch, w, k), &spans));
    state.AccountQuery(queries.back(), nullptr);
    open_ns += static_cast<double>(queries.back().open_ns);
    replay_ns += static_cast<double>(queries.back().replay_ns);
    max_resident =
        std::max(max_resident, static_cast<double>(queries.back().max_resident));
  }
  RemoveJournals(scratch, w);
  if (w.journal) {
    // Journal serialisation ran inside the traced replays.
    journal_lane.Merge(traced.lane);
  }

  std::vector<std::pair<std::string, std::int64_t>> isolated;
  for (Model model : {ModelZoo::BertBase(), ModelZoo::RobertaBase(),
                      ModelZoo::Gpt2()}) {
    isolated.emplace_back(model.name(),
                          IsolatedColdNs(model, kIsolatedColdRepeats, &spans));
  }

  const std::string spans_path = scratch + "/spans_" + w.name + "_seed" +
                                 std::to_string(seed) + ".json";
  {
    std::ofstream out(spans_path);
    out << spans.Json() << "\n";
  }
  spans.PrintTable();
  std::printf("spans written to %s\n", spans_path.c_str());

  const LayerTotals& t = traced;
  const double warm = t.requests - t.cold;
  using selfprof::Phase;
  const PhaseTotals cold_phase = SumPhase(t.lane, Phase::kColdStart);
  const PhaseTotals stream = SumPhase(t.lane, Phase::kExecStream);
  const PhaseTotals solve = SumPhase(t.lane, Phase::kFairShare);
  const PhaseTotals serialize =
      SumPhase(journal_lane, Phase::kJournalSerialize);
  std::vector<std::uint32_t> submit = t.submit_samples;
  std::sort(submit.begin(), submit.end());
  auto pct = [&submit](double p) {
    return submit.empty() ? 0.0
                          : static_cast<double>(submit[static_cast<std::size_t>(
                                p * static_cast<double>(submit.size() - 1))]);
  };
  double untraced_ns = 0.0, traced_ns = 0.0;
  for (int k = 0; k < kTraces; ++k) {
    untraced_ns += Sum(untraced_best[static_cast<std::size_t>(k)]);
    traced_ns += Sum(traced_best[static_cast<std::size_t>(k)]);
  }

  std::printf("traced totals over %d traces: %.0f requests, cold-start share "
              "%.4f, overlapping cold starts %.4f\n",
              kTraces, t.requests, PerUnit(t.cold, t.requests),
              PerUnit(t.overlapped, t.cold));
  std::printf("replay pairs %d, seconds %.3f\n", pairs,
              static_cast<double>(NowNs() - start) / 1e9);
  Metrics m;
  m.Add("workload.gen_ns_per_request", PerUnit(t.gen_ns, t.requests), "ns");
  m.Add("core.register_model_ms", PerUnit(t.register_ns / 1e6, t.models),
        "ms");
  m.Add("serving.warmup_ms", t.warmup_ns / kTraces / 1e6, "ms");
  m.Add("serving.submit_ns.p50", pct(0.50), "ns");
  m.Add("serving.submit_ns.p99", pct(0.99), "ns");
  m.Add("serving.cold_start_ratio", PerUnit(t.cold, t.requests), "ratio");
  m.Add("serving.cold_overlap_share", PerUnit(t.overlapped, t.cold), "ratio");
  m.Add("serving.evictions_per_request", PerUnit(t.evictions, t.requests),
        "count");
  m.Add("sim.run_self_s", (t.run_ns - t.submit_ns) / 1e9, "s");
  m.Add("sim.events_per_request", PerUnit(t.events, t.requests), "count");
  m.Add("sim.host_ns_per_event", PerUnit(t.run_ns, t.events), "ns");
  m.Add("sim.event_slot_peak", t.slot_peak, "count");
  m.Add("engine.cold_starts", t.cold, "count");
  m.Add("engine.cold_start_ms", cold_phase.ns / 1e6, "ms");
  m.Add("engine.events_per_cold_start", PerUnit(t.events - 2.0 * warm, t.cold),
        "count");
  for (const auto& [model, ns] : isolated) {
    m.Add("engine.isolated_cold_us." + model, static_cast<double>(ns) / 1e3,
          "us");
  }
  m.Add("stream.ops_per_cold_start",
        PerUnit(static_cast<double>(stream.count), t.cold), "count");
  m.Add("stream.exec_ms", stream.ns / 1e6, "ms");
  m.Add("fabric.solves_per_cold_start",
        PerUnit(static_cast<double>(solve.count), t.cold), "count");
  m.Add("fabric.fair_share_ms", solve.ns / 1e6, "ms");
  m.Add("fabric.bytes_per_request", PerUnit(fabric_bytes, t.requests), "B");
  m.Add("obs.journal_serialize_ms", serialize.ns / 1e6, "ms");
  m.Add("obs.journal_finish_ms", finish_ns / 1e6, "ms");
  m.Add("obs.journal_bytes_per_request",
        PerUnit(journal_bytes, journal_requests), "B");
  m.Add("whatif.open_ns_per_request", PerUnit(open_ns, journal_requests),
        "ns");
  m.Add("whatif.replay_ns_per_request", PerUnit(replay_ns, journal_requests),
        "ns");
  m.Add("whatif.max_resident_requests", max_resident, "count");
  m.Add("host.allocs_per_request", PerUnit(allocations, t.requests), "count");
  // Same work on both sides, so the ratio of run times is the ratio of
  // requests_per_s.
  m.Add("trace.traced_over_untraced", untraced_ns / traced_ns, "ratio");
  state.Report(w, seed, 1, 2 * pairs, Digest(first, journaled, queries), m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload, scratch = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--scratch") {
      scratch = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  return trace != 0 ? perfbench::RunTraced(*w, seed, seconds, scratch)
                    : perfbench::RunEndToEnd(*w, seed, seconds, scratch);
}
