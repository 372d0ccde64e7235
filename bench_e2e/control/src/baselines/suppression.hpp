#pragma once

#include <vector>

#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"

namespace isomap {

/// The data-suppression baseline (Meng et al., Computer Networks'06): a
/// node suppresses its report when another node within its 2-hop
/// neighbourhood is already transmitting a similar reading; the
/// transmitted value then represents the local field and the sink
/// interpolates. The suppressed fraction is bounded by the 2-hop degree,
/// so the generated traffic is still Theta(n) (reduced by a degree
/// factor).
struct SuppressionOptions {
  double report_bytes = 6.0;      ///< value + position.
  double value_tolerance = 0.5;   ///< Readings within this are "similar".
  int neighbourhood_hops = 2;     ///< Suppression scope.
  double ops_per_comparison = 4.0;
};

struct SuppressionResult {
  int reports_generated = 0;  ///< Reports actually transmitted.
  int reports_suppressed = 0;
  double traffic_bytes = 0.0;
};

class SuppressionProtocol {
 public:
  explicit SuppressionProtocol(SuppressionOptions options = {});

  SuppressionResult run(const Deployment& deployment,
                        const std::vector<double>& readings,
                        const CommGraph& graph, const RoutingTree& tree,
                        Ledger& ledger) const;

 private:
  SuppressionOptions options_;
};

}  // namespace isomap
