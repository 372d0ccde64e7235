#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed by the benchmark itself, around its calls into
// each layer's public functions (make_scenario, run_isomap,
// ContinuousMapper::round, IsoMapService::tick, ...). Durations the program
// measures about itself (the RunSummary / MetricsRegistry phase histograms)
// are attached to the span that made the call as "phase" records: they carry
// a duration but no start time, and count as children for self-time
// accounting. Nothing is written until to_json() at exit.

#include <string>
#include <vector>

#include "clock.hpp"
#include "util/json.hpp"

namespace isomap::e2e {

/// One row of the per-layer table: every span (or phase record) with the
/// same layer and name, summed.
struct LayerRow {
  std::string layer;
  std::string name;
  long long count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;  ///< total minus the time its direct children cover.
  bool in_round = false; ///< Lies inside a span named "round".
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span as a child of the innermost open span. `round` is the
  /// round id the span belongs to (0 = set-up). Returns -1 when disabled.
  int open(const char* layer, const char* name, int round);
  void close(int id);

  /// Attach a duration measured by the program's own phase timers to span
  /// `parent` (a span or another phase record). Returns the record's id.
  int phase(int parent, const char* layer, const std::string& name,
            double ms);

  /// Per-layer table over every recorded span, in first-seen order.
  std::vector<LayerRow> table() const;

  /// Number of spans named "round" and their summed duration.
  long long round_count() const;
  double round_total_ms() const;

  /// Self time of every span inside a round, summed, per round.
  double self_ms_per_round() const;

  /// {"spans": [...] (rounds <= max_round only), "layers": [...], plus the
  /// per-round self-time sum next to the untraced rounds' median}.
  JsonValue to_json(int max_round, double untraced_round_p50_ms) const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    double start_ms = -1.0;  ///< -1 for phase records (no start known).
    double dur_ms = 0.0;
    int parent = -1;
    int round = 0;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* layer, const char* name, int round)
      : tracer_(tracer), id_(tracer.open(layer, name, round)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_.close(id_); }

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Print the per-layer table (count, total, self, self per round, share of
/// round) to stdout, closing with the per-round self-time sum against the
/// median of the run's untraced rounds.
void print_layer_table(const Tracer& tracer, const std::string& title,
                       double untraced_round_p50_ms);

}  // namespace isomap::e2e
