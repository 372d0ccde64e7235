#pragma once

// Oracle for evaluate_node_selection (src/isomap/node_selection.hpp): the
// banded kernel must reproduce its admissions, candidates and ops exactly.

#include <vector>

#include "isomap/node_selection.hpp"
#include "net/comm_graph.hpp"

namespace isomap::oracle {

/// The pre-banded Definition 3.1 evaluation: every level scanned.
inline NodeSelectionResult selection_full_scan(
    const CommGraph& graph, const std::vector<double>& readings, int node,
    const std::vector<double>& levels, double epsilon,
    std::vector<int>& admitted) {
  admitted.clear();
  NodeSelectionResult result;
  const double v = readings[static_cast<std::size_t>(node)];
  result.ops = static_cast<double>(levels.size());
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const double lambda = levels[li];
    if (!is_candidate(v, lambda, epsilon)) continue;
    ++result.candidates;
    bool crossing = false;
    for (int nb : graph.neighbours(node)) {
      result.ops += 2.0;
      const double nv = readings[static_cast<std::size_t>(nb)];
      if ((v < lambda && lambda < nv) || (nv < lambda && lambda < v)) {
        crossing = true;
        break;
      }
    }
    if (crossing) admitted.push_back(static_cast<int>(li));
  }
  return result;
}

}  // namespace isomap::oracle
