#pragma once

// Oracle for CommGraph::k_hop_neighbours_with_distance, entry for entry.

#include <utility>
#include <vector>

#include "net/comm_graph.hpp"

namespace isomap::oracle {

/// The allocating k-hop BFS: fresh O(n) buffers on every call. Nodes come
/// out in BFS discovery order, each with its hop distance from i.
inline std::vector<std::pair<int, int>> k_hop_bfs(const CommGraph& graph,
                                                  int i, int k) {
  std::vector<std::pair<int, int>> out;
  std::vector<int> hop(static_cast<std::size_t>(graph.size()), -1);
  std::vector<int> queue;
  hop[static_cast<std::size_t>(i)] = 0;
  queue.push_back(i);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    if (hop[static_cast<std::size_t>(u)] >= k) continue;
    for (int v : graph.neighbours(u)) {
      if (hop[static_cast<std::size_t>(v)] >= 0) continue;
      hop[static_cast<std::size_t>(v)] = hop[static_cast<std::size_t>(u)] + 1;
      out.emplace_back(v, hop[static_cast<std::size_t>(v)]);
      queue.push_back(v);
    }
  }
  return out;
}

}  // namespace isomap::oracle
