#include "baselines/suppression.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace isomap {

SuppressionProtocol::SuppressionProtocol(SuppressionOptions options)
    : options_(options) {}

SuppressionResult SuppressionProtocol::run(const Deployment& deployment,
                                           const std::vector<double>& readings,
                                           const CommGraph& graph,
                                           const RoutingTree& tree,
                                           Ledger& ledger) const {
  SuppressionResult result;
  const int n = deployment.size();
  // Greedy suppression in id order: a node stays silent when some
  // already-transmitting node within its neighbourhood holds a similar
  // reading.
  std::vector<bool> transmitting(static_cast<std::size_t>(n), false);
  for (const auto& node : deployment.nodes()) {
    if (!node.alive || !tree.reachable(node.id)) continue;
    const double v = readings[static_cast<std::size_t>(node.id)];
    bool suppressed = false;
    double ops = 0.0;
    for (int nb :
         graph.k_hop_neighbours(node.id, options_.neighbourhood_hops)) {
      ops += options_.ops_per_comparison;
      if (!transmitting[static_cast<std::size_t>(nb)]) continue;
      if (std::abs(readings[static_cast<std::size_t>(nb)] - v) <=
          options_.value_tolerance) {
        suppressed = true;
        break;
      }
    }
    {
      const obs::PhaseTimer timer(obs::kPhaseSuppress);
      ledger.compute(node.id, ops);
    }
    if (suppressed) {
      ++result.reports_suppressed;
      continue;
    }
    transmitting[static_cast<std::size_t>(node.id)] = true;
    ++result.reports_generated;
    const obs::PhaseTimer timer(obs::kPhaseReportRoute);
    const auto path = tree.path_to_sink(node.id);
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      ledger.transmit(path[h], path[h + 1], options_.report_bytes);
      result.traffic_bytes += options_.report_bytes;
    }
  }
  obs::count("reports.generated", result.reports_generated);
  obs::count("reports.suppressed", result.reports_suppressed);
  return result;
}

}  // namespace isomap
