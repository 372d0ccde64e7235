#pragma once

#include <map>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/node_telemetry.hpp"

namespace isomap::obs {

/// Flat copy of a run's Ledger totals. Kept as plain numbers (rather
/// than a Ledger reference) so the obs library stays below the net layer
/// in the dependency graph — net/Ledger itself links against obs to emit
/// cost events.
struct LedgerTotals {
  int nodes = 0;
  double tx_bytes = 0.0;
  double rx_bytes = 0.0;
  double ops = 0.0;
  double mean_ops = 0.0;
  double max_ops = 0.0;

  JsonValue to_json() const;
};

/// Flat copy of a run's fault / degradation counters (zero on fault-free
/// runs): how many nodes crashed mid-run, how the routing tree repaired
/// itself, what the repair cost, and where the lost reports went. Derived
/// from the "fault.*" / "route.*" / "reports.lost_*" counters so the
/// degradation story reads off the summary without string lookups.
struct FaultTotals {
  double crashes = 0.0;
  double route_repairs = 0.0;
  double repair_bytes = 0.0;
  double reports_lost_crash = 0.0;
  double reports_lost_channel = 0.0;

  bool any() const {
    return crashes > 0 || route_repairs > 0 || repair_bytes > 0 ||
           reports_lost_crash > 0 || reports_lost_channel > 0;
  }
  JsonValue to_json() const;
};

/// Everything one protocol run reports about itself: total wall time,
/// per-phase timing histograms (count / sum / p50 / p95 / max seconds),
/// the ledger breakdown and a full metric snapshot. Every *Run bundle
/// returned by sim/runners carries one; to_json() is the machine-readable
/// form benches write as BENCH_*.json.
struct RunSummary {
  std::string protocol;
  double wall_s = 0.0;
  LedgerTotals ledger;
  FaultTotals faults;
  /// Phase label -> timing summary (seconds), from the PhaseTimer
  /// histograms ("phase.<label>.seconds").
  std::map<std::string, HistogramSnapshot> phases;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  /// Non-phase histograms (e.g. regression sample counts).
  std::map<std::string, HistogramSnapshot> histograms;
  std::size_t trace_events = 0;  ///< 0 when tracing was disabled.
  /// Spatial balance block (hotspot ids, energy Gini, max hops) — only
  /// present when the run carried a NodeTelemetry table.
  std::optional<NodeTelemetrySummary> node_telemetry;
  /// Process peak resident-set size (bytes) sampled when the run summary
  /// was assembled; 0 when unavailable or not sampled. Machine-dependent
  /// like wall_s: emitted in to_json() only when positive and zeroed by
  /// capsule normalization, so replay identity is untouched.
  double peak_rss_bytes = 0.0;

  /// Sum of one phase's recorded seconds (0 when the phase never ran).
  double phase_seconds(const std::string& phase) const;

  JsonValue to_json() const;
};

/// Assemble a summary from a run's registry. Histograms named
/// "phase.<label>.seconds" become `phases[<label>]`; everything else is
/// copied verbatim. When `telemetry` is given, its summarize() fills the
/// summary's node_telemetry block.
RunSummary make_run_summary(std::string protocol,
                            const MetricsRegistry& registry,
                            const LedgerTotals& ledger, double wall_s,
                            std::size_t trace_events = 0,
                            const NodeTelemetry* telemetry = nullptr);

}  // namespace isomap::obs
