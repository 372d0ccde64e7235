#pragma once

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace isomap::obs {

class NodeTelemetry;  // obs/node_telemetry.hpp

/// The active observation context for the current thread. Instrumentation
/// sites throughout the stack read it through the inline helpers below;
/// with no scope installed every hook is a single thread-local pointer
/// read plus a branch — the "near-zero overhead when disabled" contract
/// the microbenchmarks hold the subsystem to.
struct Context {
  MetricsRegistry* metrics = nullptr;
  TraceSink* trace = nullptr;
  NodeTelemetry* telemetry = nullptr;  ///< Per-node flight recorder.
  const char* phase = nullptr;  ///< Innermost active PhaseTimer's label.
};

Context& context();

inline MetricsRegistry* metrics() { return context().metrics; }
inline TraceSink* trace() { return context().trace; }
inline NodeTelemetry* telemetry() { return context().telemetry; }
inline bool active() {
  const Context& c = context();
  return c.metrics != nullptr || c.trace != nullptr ||
         c.telemetry != nullptr;
}
inline const char* current_phase() {
  const char* p = context().phase;
  return p ? p : "unphased";
}

/// Counter/gauge/histogram helpers that no-op without a registry.
inline void count(const char* name, double delta = 1.0) {
  if (MetricsRegistry* m = context().metrics) m->add(name, delta);
}
inline void gauge(const char* name, double value) {
  if (MetricsRegistry* m = context().metrics) m->set(name, value);
}
inline void observe(const char* name, double value) {
  if (MetricsRegistry* m = context().metrics) m->observe(name, value);
}
/// Emit a trace event (no-op without a sink).
inline void emit(const TraceEvent& event) {
  if (TraceSink* t = context().trace) t->emit(event);
}

/// RAII installer: makes `metrics`/`trace` (and optionally a
/// NodeTelemetry table) the current context for this thread, restoring
/// the previous context (scopes nest) on destruction.
class ObsScope {
 public:
  ObsScope(MetricsRegistry* metrics, TraceSink* trace);
  ObsScope(MetricsRegistry* metrics, TraceSink* trace,
           NodeTelemetry* telemetry);
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
  ~ObsScope();

 private:
  Context saved_;
};

/// RAII phase marker + wall timer. While alive, ledger charges made on
/// this thread are trace-tagged with `phase`; on destruction (or stop())
/// the elapsed wall time is recorded into the histogram
/// "phase.<phase>.seconds" and a "phase" trace event is emitted. Timers
/// nest: the innermost label wins, and the outer phase is restored when
/// the inner timer ends. Constructed with no active context, the timer
/// is fully inert.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* phase);
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer();

  /// End the phase now; returns elapsed seconds (0 when inert). Safe to
  /// call once; destruction after stop() does nothing further.
  double stop();

 private:
  const char* phase_ = nullptr;
  const char* prev_phase_ = nullptr;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

/// Standard phase labels (Section 3's pipeline stages). Free-form labels
/// are allowed everywhere; these constants keep spellings consistent
/// between the instrumentation and trace_summary.
inline constexpr const char* kPhaseDisseminate = "disseminate";
inline constexpr const char* kPhaseSelect = "select";
inline constexpr const char* kPhaseGradientFit = "gradient_fit";
inline constexpr const char* kPhaseReportRoute = "report_route";
inline constexpr const char* kPhaseRepair = "route_repair";
inline constexpr const char* kPhaseFilter = "filter";
inline constexpr const char* kPhaseFilterDrop = "filter_drop";
inline constexpr const char* kPhaseMapGen = "map_gen";
inline constexpr const char* kPhaseAggregate = "aggregate";
inline constexpr const char* kPhaseSuppress = "suppress";
/// Service-layer phases (src/serve): one shard's virtual-time mapping
/// round, and a query-response body build on a cache miss.
inline constexpr const char* kPhaseTick = "tick";
inline constexpr const char* kPhaseServe = "serve";

}  // namespace isomap::obs
