#include "obs/run_summary.hpp"

namespace isomap::obs {

JsonValue LedgerTotals::to_json() const {
  JsonValue v = JsonValue::object();
  v["nodes"] = JsonValue(nodes);
  v["tx_bytes"] = JsonValue(tx_bytes);
  v["rx_bytes"] = JsonValue(rx_bytes);
  v["ops"] = JsonValue(ops);
  v["mean_ops"] = JsonValue(mean_ops);
  v["max_ops"] = JsonValue(max_ops);
  return v;
}

JsonValue FaultTotals::to_json() const {
  JsonValue v = JsonValue::object();
  v["crashes"] = JsonValue(crashes);
  v["route_repairs"] = JsonValue(route_repairs);
  v["repair_bytes"] = JsonValue(repair_bytes);
  v["reports_lost_crash"] = JsonValue(reports_lost_crash);
  v["reports_lost_channel"] = JsonValue(reports_lost_channel);
  return v;
}

double RunSummary::phase_seconds(const std::string& phase) const {
  const auto it = phases.find(phase);
  return it == phases.end() ? 0.0 : it->second.sum;
}

JsonValue RunSummary::to_json() const {
  JsonValue v = JsonValue::object();
  v["protocol"] = JsonValue(protocol);
  v["wall_s"] = JsonValue(wall_s);
  v["ledger"] = ledger.to_json();
  v["faults"] = faults.to_json();
  JsonValue& ph = v["phases"];
  ph = JsonValue::object();
  for (const auto& [name, snap] : phases) ph[name] = snap.to_json();
  JsonValue& cnt = v["counters"];
  cnt = JsonValue::object();
  for (const auto& [name, value] : counters) cnt[name] = JsonValue(value);
  JsonValue& gg = v["gauges"];
  gg = JsonValue::object();
  for (const auto& [name, value] : gauges) gg[name] = JsonValue(value);
  JsonValue& hs = v["histograms"];
  hs = JsonValue::object();
  for (const auto& [name, snap] : histograms) hs[name] = snap.to_json();
  if (node_telemetry) v["node_telemetry"] = node_telemetry->to_json();
  if (peak_rss_bytes > 0.0) v["peak_rss_bytes"] = JsonValue(peak_rss_bytes);
  v["trace_events"] = JsonValue(trace_events);
  return v;
}

RunSummary make_run_summary(std::string protocol,
                            const MetricsRegistry& registry,
                            const LedgerTotals& ledger, double wall_s,
                            std::size_t trace_events,
                            const NodeTelemetry* telemetry) {
  RunSummary summary;
  summary.protocol = std::move(protocol);
  summary.wall_s = wall_s;
  summary.ledger = ledger;
  summary.counters = registry.counters();
  summary.gauges = registry.gauges();
  summary.trace_events = trace_events;
  const auto counter = [&](const char* name) {
    const auto it = summary.counters.find(name);
    return it == summary.counters.end() ? 0.0 : it->second;
  };
  summary.faults.crashes = counter("fault.crashes");
  summary.faults.route_repairs = counter("route.repairs");
  summary.faults.repair_bytes = counter("route.repair_bytes");
  summary.faults.reports_lost_crash = counter("reports.lost_crash");
  summary.faults.reports_lost_channel = counter("reports.lost_channel");
  static constexpr const char kPrefix[] = "phase.";
  static constexpr const char kSuffix[] = ".seconds";
  for (auto& [name, snap] : registry.histogram_snapshots()) {
    const std::size_t prefix_len = sizeof kPrefix - 1;
    const std::size_t suffix_len = sizeof kSuffix - 1;
    if (name.size() > prefix_len + suffix_len &&
        name.compare(0, prefix_len, kPrefix) == 0 &&
        name.compare(name.size() - suffix_len, suffix_len, kSuffix) == 0) {
      summary.phases[name.substr(prefix_len,
                                 name.size() - prefix_len - suffix_len)] =
          snap;
    } else {
      summary.histograms[name] = snap;
    }
  }
  if (telemetry != nullptr && telemetry->size() > 0)
    summary.node_telemetry = telemetry->summarize();
  return summary;
}

}  // namespace isomap::obs
