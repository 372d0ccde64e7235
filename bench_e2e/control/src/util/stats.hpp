#pragma once

#include <cstddef>
#include <vector>

namespace isomap {

/// Streaming univariate statistics (Welford). Used by the evaluation layer
/// to summarize per-trial metrics without retaining samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merge another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retaining sample set with quantile queries; for per-figure summaries
/// where medians/percentiles are reported.
class SampleSet {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  /// Quantile by linear interpolation, q in [0,1]. Requires non-empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
};

}  // namespace isomap
