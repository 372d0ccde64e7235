#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace isomap::obs {

JsonValue HistogramSnapshot::to_json() const {
  JsonValue v = JsonValue::object();
  v["count"] = JsonValue(count);
  v["min"] = JsonValue(min);
  v["max"] = JsonValue(max);
  v["mean"] = JsonValue(mean);
  v["sum"] = JsonValue(sum);
  v["p50"] = JsonValue(p50);
  v["p95"] = JsonValue(p95);
  return v;
}

HistogramSnapshot summarize_samples(std::vector<double> samples) {
  HistogramSnapshot s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  for (double x : samples) s.sum += x;
  s.mean = s.sum / static_cast<double>(s.count);
  const auto quantile = [&](double q) {
    const double idx = q * static_cast<double>(s.count - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const auto hi = std::min(lo + 1, s.count - 1);
    const double frac = idx - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  return s;
}

double MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

HistogramSnapshot Histogram::snapshot() const {
  // Within capacity the reservoir IS the full sample set: delegate to
  // the historical retain-all path so every field (including the
  // sorted-order sum) is bit-identical to what it always was.
  HistogramSnapshot s = summarize_samples(samples_);
  if (count_ <= kReservoirCapacity) return s;
  // Beyond capacity: count/min/max/sum come from the exact running
  // accumulators; the quantiles are reservoir estimates.
  s.count = count_;
  s.min = min_;
  s.max = max_;
  s.sum = sum_;
  s.mean = sum_ / static_cast<double>(count_);
  return s;
}

HistogramSnapshot MetricsRegistry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return {};
  return it->second.snapshot();
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histogram_snapshots()
    const {
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : histograms_) out[name] = hist.snapshot();
  return out;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

JsonValue MetricsRegistry::to_json() const {
  JsonValue v = JsonValue::object();
  JsonValue& counters = v["counters"];
  counters = JsonValue::object();
  for (const auto& [name, value] : counters_) counters[name] = JsonValue(value);
  JsonValue& gauges = v["gauges"];
  gauges = JsonValue::object();
  for (const auto& [name, value] : gauges_) gauges[name] = JsonValue(value);
  JsonValue& hists = v["histograms"];
  hists = JsonValue::object();
  for (const auto& [name, hist] : histograms_)
    hists[name] = hist.snapshot().to_json();
  return v;
}

}  // namespace isomap::obs
