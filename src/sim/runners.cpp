#include "sim/runners.hpp"

#include <chrono>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "util/mem.hpp"

namespace isomap {
namespace {

/// Runs `body` under a fresh metrics registry (plus the caller's trace
/// sink, if any) and assembles the RunSummary afterwards. The registry
/// lives on the stack: observability state never leaks between runs.
template <typename Body,
          typename Result = std::invoke_result_t<Body&, Ledger&>>
ProtocolRun<Result> observed_run(const char* protocol,
                                 const Scenario& scenario,
                                 obs::TraceSink* trace,
                                 obs::NodeTelemetry* telemetry, Body&& body) {
  Ledger ledger(scenario.deployment.size());
  obs::MetricsRegistry metrics;
  const std::size_t events_before = trace ? trace->events() : 0;
  const auto start = std::chrono::steady_clock::now();
  Result result = [&] {
    const obs::ObsScope scope(&metrics, trace, telemetry);
    return body(ledger);
  }();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  obs::RunSummary summary = obs::make_run_summary(
      protocol, metrics, ledger_totals(ledger), wall_s,
      trace ? trace->events() - events_before : 0, telemetry);
  summary.peak_rss_bytes = static_cast<double>(peak_rss_bytes());
  return {std::move(result), std::move(ledger), std::move(summary)};
}

}  // namespace

obs::LedgerTotals ledger_totals(const Ledger& ledger) {
  obs::LedgerTotals totals;
  totals.nodes = ledger.size();
  totals.tx_bytes = ledger.total_tx_bytes();
  totals.rx_bytes = ledger.total_rx_bytes();
  totals.ops = ledger.total_ops();
  totals.mean_ops = ledger.mean_ops();
  totals.max_ops = ledger.max_ops();
  return totals;
}

IsoMapRun run_isomap(const Scenario& scenario, const IsoMapOptions& options,
                     obs::TraceSink* trace, obs::NodeTelemetry* telemetry) {
  return observed_run("isomap", scenario, trace, telemetry, [&](Ledger& l) {
    IsoMapProtocol protocol(options);
    return protocol.run(scenario.readings, scenario.deployment,
                        scenario.graph, scenario.tree, l);
  });
}

IsoMapOptions isomap_options(const Scenario& scenario, int num_levels) {
  IsoMapOptions options;
  options.query = default_query(scenario.field, num_levels);
  return options;
}

IsoMapRun run_isomap(const Scenario& scenario, int num_levels,
                     obs::TraceSink* trace, obs::NodeTelemetry* telemetry) {
  return run_isomap(scenario, isomap_options(scenario, num_levels), trace,
                    telemetry);
}

TinyDBRun run_tinydb(const Scenario& scenario, TinyDBOptions options,
                     obs::TraceSink* trace, obs::NodeTelemetry* telemetry) {
  return observed_run("tinydb", scenario, trace, telemetry, [&](Ledger& l) {
    TinyDBProtocol protocol(options);
    return protocol.run(scenario.deployment, scenario.readings, scenario.tree,
                        l);
  });
}

InlrRun run_inlr(const Scenario& scenario, InlrOptions options,
                 obs::TraceSink* trace, obs::NodeTelemetry* telemetry) {
  return observed_run("inlr", scenario, trace, telemetry, [&](Ledger& l) {
    InlrProtocol protocol(options);
    return protocol.run(scenario.deployment, scenario.readings, scenario.tree,
                        l);
  });
}

EScanRun run_escan(const Scenario& scenario, EScanOptions options,
                   obs::TraceSink* trace, obs::NodeTelemetry* telemetry) {
  return observed_run("escan", scenario, trace, telemetry, [&](Ledger& l) {
    EScanProtocol protocol(options);
    return protocol.run(scenario.deployment, scenario.readings, scenario.tree,
                        l);
  });
}

SuppressionRun run_suppression(const Scenario& scenario,
                               SuppressionOptions options,
                               obs::TraceSink* trace,
                               obs::NodeTelemetry* telemetry) {
  return observed_run(
      "suppression", scenario, trace, telemetry, [&](Ledger& l) {
        SuppressionProtocol protocol(options);
        return protocol.run(scenario.deployment, scenario.readings,
                            scenario.graph, scenario.tree, l);
      });
}

}  // namespace isomap
