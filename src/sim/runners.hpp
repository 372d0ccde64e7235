#pragma once

#include "baselines/escan.hpp"
#include "baselines/inlr.hpp"
#include "baselines/suppression.hpp"
#include "baselines/tinydb.hpp"
#include "energy/mica2.hpp"
#include "isomap/protocol.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/run_summary.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"

namespace isomap {

/// Result + ledger + observability bundles so benchmark harnesses can
/// read traffic, computation, energy, per-phase timings and metric
/// snapshots off one object per protocol run.
///
/// Every runner installs an obs scope for the duration of the run: a
/// fresh MetricsRegistry (always), the caller's TraceSink (when given,
/// for structured JSONL event traces — see docs/OBSERVABILITY.md) and the
/// caller's NodeTelemetry table (when given, for per-node flight-recorder
/// counters; its summarize() lands in the summary's node_telemetry). The
/// returned RunSummary carries the phase timings, the ledger breakdown
/// and the metric snapshot; summary.to_json() is the machine-readable
/// form.

template <class Result>
struct ProtocolRun {
  Result result;
  Ledger ledger;
  obs::RunSummary summary;
};

using IsoMapRun = ProtocolRun<IsoMapResult>;
using TinyDBRun = ProtocolRun<TinyDBResult>;
using InlrRun = ProtocolRun<InlrResult>;
using EScanRun = ProtocolRun<EScanResult>;
using SuppressionRun = ProtocolRun<SuppressionResult>;

/// Flatten a run's ledger into the summary's plain-number form.
obs::LedgerTotals ledger_totals(const Ledger& ledger);

IsoMapRun run_isomap(const Scenario& scenario, const IsoMapOptions& options,
                     obs::TraceSink* trace = nullptr,
                     obs::NodeTelemetry* telemetry = nullptr);

/// Paper-default options with `num_levels` isolevels spanning the
/// scenario field — the starting point callers tweak (link loss, bursty
/// channel, fault injection) before run_isomap(scenario, options).
IsoMapOptions isomap_options(const Scenario& scenario, int num_levels = 4);

/// Convenience: paper-default options with `num_levels` isolevels spanning
/// the scenario field.
IsoMapRun run_isomap(const Scenario& scenario, int num_levels = 4,
                     obs::TraceSink* trace = nullptr,
                     obs::NodeTelemetry* telemetry = nullptr);

TinyDBRun run_tinydb(const Scenario& scenario, TinyDBOptions options = {},
                     obs::TraceSink* trace = nullptr,
                     obs::NodeTelemetry* telemetry = nullptr);
InlrRun run_inlr(const Scenario& scenario, InlrOptions options = {},
                 obs::TraceSink* trace = nullptr,
                 obs::NodeTelemetry* telemetry = nullptr);
EScanRun run_escan(const Scenario& scenario, EScanOptions options = {},
                   obs::TraceSink* trace = nullptr,
                   obs::NodeTelemetry* telemetry = nullptr);
SuppressionRun run_suppression(const Scenario& scenario,
                               SuppressionOptions options = {},
                               obs::TraceSink* trace = nullptr,
                               obs::NodeTelemetry* telemetry = nullptr);

}  // namespace isomap
