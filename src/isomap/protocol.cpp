#include "isomap/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exec/exec.hpp"
#include "isomap/convergecast.hpp"
#include "isomap/regression.hpp"
#include "net/channel.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace isomap {

IsoMapProtocol::IsoMapProtocol(IsoMapOptions options)
    : options_(std::move(options)) {
  // Reject bad options here, before a run has charged anything.
  if (!std::isfinite(options_.header_bytes) || options_.header_bytes < 0.0)
    throw std::invalid_argument(
        "IsoMapProtocol: header_bytes must be finite and >= 0");
  if (options_.query.regression_hops < 1)
    throw std::invalid_argument(
        "IsoMapProtocol: regression_hops must be >= 1");
  options_.link.validate();
}

IsoMapResult IsoMapProtocol::run(const std::vector<double>& readings,
                                 const Deployment& deployment,
                                 const CommGraph& graph,
                                 const RoutingTree& tree,
                                 Ledger& ledger) const {
  const int n = deployment.size();
  if (readings.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("IsoMapProtocol: readings size != node count");
  const ContourQuery& query = options_.query;

  double dissemination_bytes = 0.0;
  if (options_.account_query_dissemination) {
    const obs::PhaseTimer timer(obs::kPhaseDisseminate);
    // The sink floods the query down the tree: one transmission per edge.
    for (int v = 0; v < n; ++v) {
      if (!tree.reachable(v) || v == tree.sink()) continue;
      ledger.transmit(tree.parent(v), v, IsoMapOptions::kQueryBytes);
      dissemination_bytes += IsoMapOptions::kQueryBytes;
    }
  }

  // --- Step 1: distributed isoline-node self-selection (Def. 3.1). ---
  obs::PhaseTimer select_timer(obs::kPhaseSelect);
  std::vector<double> selection_ops;
  const std::vector<SelectionEntry> selected =
      options_.adaptive_epsilon
          ? select_isoline_nodes_adaptive(graph, deployment, readings, query,
                                          graph.radio_range(),
                                          &selection_ops)
          : select_isoline_nodes(graph, readings, query, &selection_ops);
  ledger.compute_all(graph, selection_ops);
  select_timer.stop();

  // --- Step 2: local measurement and report generation (Section 3.3). ---
  // Each distinct isoline node performs one neighbourhood exchange and one
  // regression, shared across all isolevels it matched. Selection emits
  // its entries in ascending node order, so a node's entries are adjacent
  // and comparing with the previous entry yields the distinct nodes.
  std::vector<int> distinct_nodes;
  for (const auto& entry : selected)
    if (distinct_nodes.empty() || distinct_nodes.back() != entry.node)
      distinct_nodes.push_back(entry.node);

  obs::count("select.entries", static_cast<double>(selected.size()));
  obs::count("select.distinct_nodes",
             static_cast<double>(distinct_nodes.size()));

  obs::PhaseTimer fit_timer(obs::kPhaseGradientFit);
  double measurement_bytes = 0.0;
  // Tile-parallel gradient fits: workers find each distinct node's k-hop
  // scope (thread-safe: epoch-stamped thread_local scratch in CommGraph)
  // and prime and fit its record, touching nothing shared. Everything
  // order-sensitive (Ledger charges with their cost trace events, the
  // regression metrics, the output tables) happens in the serial merge
  // below, in distinct-node order: charges first, then fit metrics, then
  // the compute charge. Fits are few (O(sqrt(n) * levels)) and each
  // costs O(scope), so small blocks keep all workers fed.
  std::vector<std::vector<std::pair<int, int>>> scopes(distinct_nodes.size());
  std::vector<PlaneFitRecord> fits(distinct_nodes.size());
  exec::parallel_for_blocks(
      TileBlocks{distinct_nodes.size(), 64},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        // A single-shot record is fitted once, so the block lends one
        // sample buffer to each record in turn and takes it back: one
        // allocation per block, not per node.
        std::vector<double> samples;
        std::vector<int> scope_nodes;
        for (std::size_t i = begin; i < end; ++i) {
          const int node = distinct_nodes[i];
          scopes[i] =
              graph.k_hop_neighbours_with_distance(node, query.regression_hops);
          scope_nodes.clear();
          for (const auto& [nb, dist] : scopes[i]) scope_nodes.push_back(nb);
          PlaneFitRecord& fit = fits[i];
          fit.samples.swap(samples);
          fit.prime(deployment, node, scope_nodes);
          fit.refit(readings, node, scope_nodes);
          fit.samples.swap(samples);
        }
      });

  FitMetrics fit_metrics;
  for (std::size_t i = 0; i < distinct_nodes.size(); ++i) {
    const int node = distinct_nodes[i];
    // Traffic: one probe broadcast heard by the 1-hop neighbours (k-hop
    // scopes rebroadcast it hop by hop), then one <value, position> reply
    // per scoped neighbour, relayed over its hop distance back to the
    // isoline node.
    if (options_.account_local_measurement) {
      ledger.broadcast(node, graph.neighbours(node),
                       IsoMapOptions::kProbeBytes);
      measurement_bytes += IsoMapOptions::kProbeBytes;
      for (const auto& [nb, dist] : scopes[i]) {
        const double reply = IsoMapOptions::kSampleTupleBytes * dist;
        ledger.transmit(nb, node, reply);
        measurement_bytes += reply;
      }
    }
    fit_metrics.record(fits[i].size(), fits[i].has_fit);
    ledger.compute(node, fits[i].ops);
  }
  fit_timer.stop();

  // --- Step 3: convergecast with in-network filtering (Section 3.5). ---
  obs::PhaseTimer route_timer(obs::kPhaseReportRoute);
  obs::NodeTelemetry* const tel = obs::telemetry();
  obs::TraceSink* const span_sink = obs::trace();
  // Reports leave their sources in selection order, each tagged with a
  // causal id and traced as hop 0 of its span.
  std::vector<IsolineReport> reports;
  std::size_t fit_index = 0;
  for (const auto& entry : selected) {
    if (distinct_nodes[fit_index] != entry.node) ++fit_index;
    const PlaneFitRecord& fit = fits[fit_index];
    if (!fit.has_fit || !tree.reachable(entry.node)) continue;
    const int id = static_cast<int>(reports.size());
    IsolineReport& r = reports.emplace_back(IsolineReport{
        entry.isolevel, deployment.node(entry.node).reported_pos(),
        fit.descent, entry.node});
    r.id = id;
    if (tel != nullptr) tel->count_generated(entry.node);
    if (span_sink != nullptr) {
      obs::TraceEvent event;
      event.kind = "span";
      event.phase = obs::current_phase();
      event.node = entry.node;
      event.report = id;
      event.hop = 0;
      event.isolevel = entry.isolevel;
      span_sink->emit(event);
    }
  }
  const int generated = static_cast<int>(reports.size());

  const InNetworkFilter filter = InNetworkFilter::from_query(query);
  Channel channel(options_.link);
  // With a fault plan the injector advances along convergecast progress
  // and kills nodes on schedule; without one the convergecast visits only
  // the nodes on report paths.
  std::optional<FaultInjector> injector;
  if (options_.fault.active())
    injector.emplace(make_fault_plan(options_.fault, deployment, tree.sink()),
                     deployment, tree.sink());
  std::optional<ConvergecastFaults> faults;
  if (injector && !injector->plan_empty())
    faults.emplace(*injector, graph, options_.fault.self_healing);
  const ConvergecastOptions route_options{
      .filter = query.enable_filtering ? &filter : nullptr,
      .header_bytes = options_.header_bytes,
      .record_transmissions = options_.record_transmissions};
  ConvergecastResult routed =
      convergecast(reports, tree, channel, ledger, route_options,
                   faults ? &*faults : nullptr);
  route_timer.stop();
  obs::count("reports.generated", generated);
  if (routed.filtered > 0) obs::count("reports.filtered", routed.filtered);
  if (routed.lost_channel > 0)
    obs::count("reports.lost_channel", routed.lost_channel);
  if (routed.lost_crash > 0)
    obs::count("reports.lost_crash", routed.lost_crash);
  if (routed.repairs > 0) obs::count("route.repairs", routed.repairs);
  if (routed.repair_bytes > 0.0)
    obs::count("route.repair_bytes", routed.repair_bytes);

  if (tel != nullptr)
    for (const auto& r : routed.sink_reports) tel->count_delivered(r.source);
  obs::count("reports.delivered",
             static_cast<double>(routed.sink_reports.size()));
  ContourMap map = ContourMapBuilder(deployment.bounds(), options_.regulation)
                       .build(routed.sink_reports, query.isolevels());
  IsoMapResult result{{},
                      std::move(routed.sink_reports),
                      std::move(map),
                      std::move(routed.transmissions)};
  result.isoline_node_count = static_cast<int>(distinct_nodes.size());
  result.generated_reports = generated;
  result.delivered_reports = static_cast<int>(result.sink_reports.size());
  result.filtered_reports = routed.filtered;
  result.lost_channel_reports = routed.lost_channel;
  result.lost_crash_reports = routed.lost_crash;
  result.crashed_nodes = injector ? injector->crash_count() : 0;
  result.route_repairs = routed.repairs;
  result.repair_traffic_bytes = routed.repair_bytes;
  result.report_traffic_bytes = routed.report_bytes;
  result.measurement_traffic_bytes = measurement_bytes;
  result.dissemination_traffic_bytes = dissemination_bytes;
  result.bottleneck_bytes = routed.bottleneck_bytes;
  if (channel.impaired() && !result.sink_reports.empty()) {
    double first = 0.0, last = 0.0, sum = 0.0;
    bool any = false;
    for (const auto& r : result.sink_reports) {
      const double lat =
          routed.latency_by_id[static_cast<std::size_t>(r.id)];
      if (!any) {
        first = last = lat;
        any = true;
      } else {
        first = std::min(first, lat);
        last = std::max(last, lat);
      }
      sum += lat;
    }
    result.e2e_first_latency_s = first;
    result.e2e_last_latency_s = last;
    result.e2e_mean_latency_s =
        sum / static_cast<double>(result.sink_reports.size());
    obs::gauge("latency.e2e_first_s", result.e2e_first_latency_s);
    obs::gauge("latency.e2e_last_s", result.e2e_last_latency_s);
    obs::gauge("latency.e2e_mean_s", result.e2e_mean_latency_s);
  }
  return result;
}

}  // namespace isomap
