#pragma once

// Oracle for the CommGraph and RoutingTree constructors: their CSR rows,
// BFS levels and lowest-id parents must match these slow, obvious builds
// exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "net/routing_tree.hpp"

namespace isomap::oracle {

struct Csr {
  std::vector<int> offsets{0};
  std::vector<int> edges;
};

/// O(n^2) unit-disc graph: every pair of alive nodes within `range`, each
/// node's neighbours ascending.
inline Csr unit_disc(const Deployment& dep, double range) {
  Csr out;
  const double range2 = range * range;
  for (int i = 0; i < dep.size(); ++i) {
    if (dep.node(i).alive) {
      for (int j = 0; j < dep.size(); ++j) {
        if (j != i && dep.node(j).alive &&
            (dep.node(j).pos - dep.node(i).pos).norm2() <= range2)
          out.edges.push_back(j);
      }
    }
    out.offsets.push_back(static_cast<int>(out.edges.size()));
  }
  return out;
}

inline void expect_graph_matches(const CommGraph& graph, const Deployment& dep,
                                 double range) {
  const Csr want = unit_disc(dep, range);
  EXPECT_EQ(graph.csr_offsets(), want.offsets);
  EXPECT_EQ(graph.csr_edges(), want.edges);
}

/// Hop distance of every node from the sink (-1 if unreachable).
inline std::vector<int> bfs_levels(const CommGraph& graph, int sink) {
  std::vector<int> level(static_cast<std::size_t>(graph.size()), -1);
  std::queue<int> queue;
  level[static_cast<std::size_t>(sink)] = 0;
  queue.push(sink);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (int v : graph.neighbours(u)) {
      if (level[static_cast<std::size_t>(v)] >= 0) continue;
      level[static_cast<std::size_t>(v)] = level[static_cast<std::size_t>(u)] + 1;
      queue.push(v);
    }
  }
  return level;
}

/// Reachable nodes sorted by a comparator: deepest level first, ascending
/// id within a level.
inline std::vector<int> sorted_post_order(const RoutingTree& tree, int n) {
  std::vector<int> order;
  for (int v = 0; v < n; ++v)
    if (tree.reachable(v)) order.push_back(v);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return tree.level(a) != tree.level(b) ? tree.level(a) > tree.level(b)
                                          : a < b;
  });
  return order;
}

/// What every tree keeps, built or repaired: parents one level up over a
/// graph edge, children(u) ascending and exactly the nodes whose parent
/// is u, post_order() equal to the comparator sort, depth and
/// reachable_count consistent with the levels.
inline void expect_consistent(const CommGraph& graph, const RoutingTree& tree) {
  const int n = graph.size();
  EXPECT_EQ(tree.level(tree.sink()), 0);
  EXPECT_EQ(tree.parent(tree.sink()), -1);
  int reachable = 0;
  int depth = 0;
  int child_count = 0;
  for (int v = 0; v < n; ++v) {
    if (tree.reachable(v)) {
      ++reachable;
      depth = std::max(depth, tree.level(v));
    }
    const int p = tree.parent(v);
    if (v == tree.sink() || !tree.reachable(v)) {
      EXPECT_EQ(p, -1) << v;
    } else {
      ASSERT_GE(p, 0) << v;
      EXPECT_EQ(tree.level(v), tree.level(p) + 1) << v;
      const auto nb = graph.neighbours(v);
      EXPECT_TRUE(std::binary_search(nb.begin(), nb.end(), p)) << v;
    }
    const auto kids = tree.children(v);
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end())) << v;
    EXPECT_EQ(std::adjacent_find(kids.begin(), kids.end()), kids.end()) << v;
    for (int c : kids) EXPECT_EQ(tree.parent(c), v) << c;
    child_count += static_cast<int>(kids.size());
  }
  EXPECT_EQ(tree.reachable_count(), reachable);
  EXPECT_EQ(tree.depth(), depth);
  EXPECT_EQ(child_count, reachable - 1);  // Every reachable node but the sink.
  EXPECT_EQ(tree.post_order(), sorted_post_order(tree, n));
}

/// The construction rule on top of expect_consistent: levels are BFS hop
/// distances and each parent is the lowest-id neighbour one level closer.
inline void expect_built_by_rule(const CommGraph& graph,
                                 const RoutingTree& tree) {
  const std::vector<int> level = bfs_levels(graph, tree.sink());
  for (int v = 0; v < graph.size(); ++v) {
    EXPECT_EQ(tree.level(v), level[static_cast<std::size_t>(v)]) << v;
    int lowest = -1;
    for (int u : graph.neighbours(v)) {
      if (level[static_cast<std::size_t>(u)] ==
              level[static_cast<std::size_t>(v)] - 1 &&
          (lowest == -1 || u < lowest))
        lowest = u;
    }
    if (v != tree.sink() && level[static_cast<std::size_t>(v)] > 0) {
      EXPECT_EQ(tree.parent(v), lowest) << v;
    }
  }
  expect_consistent(graph, tree);
}

}  // namespace isomap::oracle
