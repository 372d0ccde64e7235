#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace isomap::obs {

/// Summary of a histogram's samples at snapshot time.
struct HistogramSnapshot {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;

  JsonValue to_json() const;
};

/// Bounded-memory histogram: the first kReservoirCapacity samples are
/// retained verbatim; beyond that, Vitter's algorithm R (driven by a
/// fixed-seed splitmix64, so runs are deterministic) keeps a uniform
/// reservoir for the quantiles while count/min/max/sum stay exact from
/// running accumulators. Multi-thousand-round soak runs therefore hold
/// at most kReservoirCapacity doubles per histogram. While the sample
/// count is within capacity, snapshot() is bit-identical to the
/// historical retain-all summary (including its sum-over-sorted-samples
/// accumulation order), which the golden capsule corpus pins.
class Histogram {
 public:
  static constexpr std::size_t kReservoirCapacity = 4096;

  void record(double value) {
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    sum_ += value;
    ++count_;
    if (samples_.size() < kReservoirCapacity) {
      samples_.push_back(value);
      return;
    }
    // Algorithm R: sample i (0-based) replaces a random slot with
    // probability capacity / (i + 1).
    const std::uint64_t j = next_random() % count_;
    if (j < kReservoirCapacity) samples_[static_cast<std::size_t>(j)] = value;
  }

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  HistogramSnapshot snapshot() const;

 private:
  std::uint64_t next_random() {
    // splitmix64 with a fixed seed: deterministic across runs/platforms.
    std::uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::vector<double> samples_;  ///< Reservoir (exact while within capacity).
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;  ///< Exact running sum, insertion order.
  std::uint64_t rng_state_ = 0x150C0DE5EEDULL;
};

/// Named counters, gauges and histograms for one protocol run (or any
/// other scope the caller chooses). Not thread-safe: a registry belongs
/// to the run that owns it, matching the simulator's single-threaded
/// execution model. Lookup is by string name; instrumentation sites are
/// expected to be outside per-sample inner loops (charge aggregates, not
/// individual arithmetic ops).
class MetricsRegistry {
 public:
  /// Monotonic counter: accumulate `delta` (default 1).
  void add(const std::string& name, double delta = 1.0) {
    counters_[name] += delta;
  }

  /// Gauge: last-write-wins value.
  void set(const std::string& name, double value) { gauges_[name] = value; }

  /// Histogram: record one sample (bounded reservoir — see Histogram).
  /// The lookup takes the name as a view, so a caller can build it on
  /// the stack; only a histogram's first sample copies the name.
  void observe(std::string_view name, double value) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      it = histograms_.emplace(std::string(name), Histogram{}).first;
    it->second.record(value);
  }

  /// Stable references to a counter's / histogram's storage, for hot
  /// loops that would otherwise pay a map lookup per emission. std::map
  /// nodes never move, so the reference stays valid for the registry's
  /// lifetime. Looking a slot up creates it (counter 0 / empty
  /// histogram), exactly as add()/observe() would.
  double& counter_slot(const std::string& name) { return counters_[name]; }
  Histogram& histogram_slot(const std::string& name) {
    return histograms_[name];
  }

  double counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  /// Snapshot of one histogram (zeros when absent).
  HistogramSnapshot histogram(const std::string& name) const;

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  std::map<std::string, HistogramSnapshot> histogram_snapshots() const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  JsonValue to_json() const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  /// Transparent comparator: observe() finds a histogram by string_view.
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// Compute a snapshot from raw samples (exposed for tests).
HistogramSnapshot summarize_samples(std::vector<double> samples);

}  // namespace isomap::obs
