#include "src/obs/metrics_registry.h"

#include <utility>

#include "src/obs/selfprof.h"

namespace deepplan {

MetricsRegistry::MetricsRegistry(MetricsRegistry&& other) noexcept
    : counters_(std::move(other.counters_)),
      histograms_(std::move(other.histograms_)) {}

MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&& other) noexcept {
  if (this != &other) {
    counters_ = std::move(other.counters_);
    histograms_ = std::move(other.histograms_);
  }
  return *this;
}

void MetricsRegistry::AddCounter(const std::string& name, std::int64_t delta) {
  MutexLock lock(mu_);
  counters_[name] += delta;
}

std::int64_t MetricsRegistry::counter(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::Observe(const std::string& name, double sample) {
  MutexLock lock(mu_);
  histograms_[name].Add(sample);
}

HistogramSummary MetricsRegistry::SummaryOf(Percentiles pct) {
  HistogramSummary summary;
  if (pct.empty()) {
    return summary;
  }
  summary.count = pct.count();
  summary.mean = pct.Mean();
  summary.min = pct.Min();
  summary.max = pct.Max();
  summary.p50 = pct.Percentile(50.0);
  summary.p95 = pct.Percentile(95.0);
  summary.p99 = pct.Percentile(99.0);
  return summary;
}

HistogramSummary MetricsRegistry::histogram(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return HistogramSummary{};
  }
  return SummaryOf(it->second);
}

JsonObject MetricsRegistry::Snapshot() const {
  DP_SELFPROF_SCOPE(kMetricsSnapshot);
  MutexLock lock(mu_);
  JsonObject doc;
  if (!counters_.empty()) {
    JsonObject counters;
    for (const auto& [name, value] : counters_) {
      counters.Set(name, value);
    }
    doc.SetRaw("counters", counters.Render());
  }
  if (!histograms_.empty()) {
    JsonObject histograms;
    for (const auto& entry : histograms_) {
      const HistogramSummary s = SummaryOf(entry.second);
      histograms.SetRaw(entry.first, JsonObject()
                                       .Set("count", static_cast<std::int64_t>(s.count))
                                       .Set("mean", s.mean)
                                       .Set("min", s.min)
                                       .Set("max", s.max)
                                       .Set("p50", s.p50)
                                       .Set("p95", s.p95)
                                       .Set("p99", s.p99)
                                       .Render());
    }
    doc.SetRaw("histograms", histograms.Render());
  }
  return doc;
}

}  // namespace deepplan
