#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/exec.hpp"
#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"
#include "oracles/k_hop_bfs.hpp"
#include "oracles/net_oracle.hpp"
#include "sim/scenario.hpp"

namespace isomap {
namespace {

const FieldBounds kBounds{0, 0, 50, 50};

TEST(Deployment, UniformRandomStaysInBounds) {
  Rng rng(1);
  const Deployment dep = Deployment::uniform_random(kBounds, 500, rng);
  EXPECT_EQ(dep.size(), 500);
  EXPECT_EQ(dep.alive_count(), 500);
  for (const auto& node : dep.nodes()) EXPECT_TRUE(kBounds.contains(node.pos));
  EXPECT_NEAR(dep.density(), 0.2, 1e-12);
}

TEST(Deployment, GridLayoutIsRegular) {
  const Deployment dep = Deployment::grid(kBounds, 25);
  EXPECT_EQ(dep.size(), 25);
  // 5x5 grid with 10-unit cells centred at 5, 15, 25, 35, 45.
  EXPECT_EQ(dep.node(0).pos, (Vec2{5, 5}));
  EXPECT_EQ(dep.node(6).pos, (Vec2{15, 15}));
  EXPECT_EQ(dep.node(24).pos, (Vec2{45, 45}));
}

TEST(Deployment, FailRandomCounts) {
  Rng rng(2);
  Deployment dep = Deployment::uniform_random(kBounds, 1000, rng);
  dep.fail_random(0.3, rng);
  EXPECT_EQ(dep.alive_count(), 700);
  dep.fail_random(0.5, rng);
  EXPECT_EQ(dep.alive_count(), 350);
  dep.revive_all();
  EXPECT_EQ(dep.alive_count(), 1000);
}

TEST(Deployment, FailAllAndNone) {
  Rng rng(3);
  Deployment dep = Deployment::uniform_random(kBounds, 100, rng);
  dep.fail_random(0.0, rng);
  EXPECT_EQ(dep.alive_count(), 100);
  dep.fail_random(1.0, rng);
  EXPECT_EQ(dep.alive_count(), 0);
  EXPECT_EQ(dep.nearest_alive({25, 25}), -1);
}

TEST(Deployment, FailRandomClampsOutOfRangeFractions) {
  Rng rng(4);
  Deployment dep = Deployment::uniform_random(kBounds, 100, rng);
  dep.fail_random(-0.5, rng);  // Below 0: nobody dies.
  EXPECT_EQ(dep.alive_count(), 100);
  dep.fail_random(1.5, rng);  // Above 1: everybody dies.
  EXPECT_EQ(dep.alive_count(), 0);
}

TEST(Deployment, NearestAliveSkipsDead) {
  std::vector<Node> nodes = {{0, {1, 1}, true, {}}, {1, {25, 25}, true, {}}};
  Deployment dep(kBounds, std::move(nodes));
  EXPECT_EQ(dep.nearest_alive({24, 24}), 1);
  dep.nodes()[1].alive = false;
  EXPECT_EQ(dep.nearest_alive({24, 24}), 0);
}

TEST(Deployment, BadIdsThrow) {
  std::vector<Node> nodes = {{5, {1, 1}, true, {}}};
  EXPECT_THROW(Deployment(kBounds, std::move(nodes)), std::invalid_argument);
}

/// u in N(v) <=> v in N(u) for every pair, and a dead node has no
/// neighbours. The continuous mapper's dirty pass pulls its neighbours'
/// flags instead of pushing its own, which is only the same on a
/// symmetric graph.
void expect_symmetric(const CommGraph& graph, const char* where) {
  std::size_t directed = 0;
  for (int v = 0; v < graph.size(); ++v) {
    if (!graph.alive(v)) {
      EXPECT_TRUE(graph.neighbour_span(v).empty()) << where;
    }
    for (const int u : graph.neighbour_span(v)) {
      const auto back = graph.neighbour_span(u);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v))
          << where << ": " << u << " in N(" << v << ") but not back";
      ++directed;
    }
  }
  EXPECT_GT(directed, 0u) << where;
}

TEST(CommGraph, AdjacencyIsSymmetricAndRangeLimited) {
  Rng rng(4);
  Deployment dep = Deployment::uniform_random(kBounds, 800, rng);
  const CommGraph graph(dep, 2.0);
  for (int i = 0; i < graph.size(); ++i)
    for (int j : graph.neighbours(i))
      EXPECT_LE(dep.node(i).pos.distance_to(dep.node(j).pos), 2.0 + 1e-12);
  expect_symmetric(graph, "at construction");
  // Crashes, then a rebuild over the survivors.
  Rng crash(2626);
  dep.fail_random(0.2, crash);
  dep.fail_random(0.1, crash);
  ASSERT_LT(dep.alive_count(), 800);
  expect_symmetric(CommGraph(dep, 2.0), "after crashes");
}

TEST(CommGraph, DegreeMatchesTheory) {
  // For density rho and radio range r, E[deg] ~ rho * pi * r^2 (minus edge
  // effects). Paper: range 1.5 at density 1 -> degree ~7.
  Rng rng(5);
  const Deployment dep = Deployment::uniform_random({0, 0, 50, 50}, 2500, rng);
  const CommGraph graph(dep, 1.5);
  EXPECT_NEAR(graph.average_degree(), M_PI * 1.5 * 1.5, 1.2);
}

TEST(CommGraph, DeadNodesAreIsolated) {
  Rng rng(6);
  Deployment dep = Deployment::uniform_random(kBounds, 200, rng);
  dep.nodes()[0].alive = false;
  const CommGraph graph(dep, 5.0);
  EXPECT_TRUE(graph.neighbours(0).empty());
  for (int i = 1; i < graph.size(); ++i)
    for (int j : graph.neighbours(i)) EXPECT_NE(j, 0);
}

TEST(CommGraph, KHopGrowsMonotonically) {
  Rng rng(7);
  const Deployment dep = Deployment::uniform_random(kBounds, 500, rng);
  const CommGraph graph(dep, 3.0);
  const auto h1 = graph.k_hop_neighbours(10, 1);
  const auto h2 = graph.k_hop_neighbours(10, 2);
  const auto h3 = graph.k_hop_neighbours(10, 3);
  EXPECT_EQ(h1.size(), graph.neighbours(10).size());
  EXPECT_GE(h2.size(), h1.size());
  EXPECT_GE(h3.size(), h2.size());
  // Distances are correct.
  for (const auto& [node, dist] : graph.k_hop_neighbours_with_distance(10, 2)) {
    EXPECT_GE(dist, 1);
    EXPECT_LE(dist, 2);
    if (dist == 1) {
      EXPECT_NE(std::find(h1.begin(), h1.end(), node), h1.end());
    }
  }
}

TEST(CommGraph, KHopMatchesAllocatingBfs) {
  // A harbor scenario with a fifth of the nodes dead: every node, alive
  // or not, must get the oracle's nodes, hops and order for k = 1..3.
  ScenarioConfig config;
  config.num_nodes = 2500;
  config.field_side = 50.0;
  config.field = FieldKind::kHarbor;
  config.failure_fraction = 0.2;
  config.seed = 11;
  const Scenario s = make_scenario(config);
  const CommGraph& graph = s.graph;
  int dead = 0;
  for (int i = 0; i < graph.size(); ++i) {
    if (!graph.alive(i)) ++dead;
    for (int k = 1; k <= 3; ++k)
      ASSERT_EQ(graph.k_hop_neighbours_with_distance(i, k),
                oracle::k_hop_bfs(graph, i, k))
          << "node " << i << ", k " << k;
  }
  EXPECT_GT(dead, 0);
}

TEST(CommGraph, ConnectivityDetection) {
  // Two far-apart clusters with a short range are disconnected.
  std::vector<Node> nodes;
  for (int i = 0; i < 5; ++i)
    nodes.push_back({i, {static_cast<double>(i), 0.0}, true, {}});
  for (int i = 5; i < 10; ++i)
    nodes.push_back({i, {static_cast<double>(i) + 30.0, 0.0}, true, {}});
  const Deployment dep(kBounds, std::move(nodes));
  EXPECT_FALSE(CommGraph(dep, 1.5).is_connected());
  EXPECT_TRUE(CommGraph(dep, 40.0).is_connected());
}

TEST(CommGraph, InvalidRangeThrows) {
  Rng rng(8);
  const Deployment dep = Deployment::uniform_random(kBounds, 10, rng);
  EXPECT_THROW(CommGraph(dep, 0.0), std::invalid_argument);
  EXPECT_THROW(CommGraph(dep, -1.5), std::invalid_argument);
  // NaN fails every comparison, so a `<= 0` check alone let it through
  // and built a graph with no edges.
  EXPECT_THROW(CommGraph(dep, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(CommGraph(dep, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(CommGraph, TinyRangeKeepsTheTileCountBounded) {
  // 1000 / 0.001 = 10^6 range-wide tiles per axis: 10^12 tiles, which
  // overflowed int and threw std::length_error. The tile count is now
  // capped by the alive-node count; a few close pairs still link.
  Rng rng(14);
  std::vector<Node> nodes =
      Deployment::uniform_random({0, 0, 1000, 1000}, 100, rng).nodes();
  for (int k = 0; k < 10; ++k) {
    const Vec2 near = nodes[static_cast<std::size_t>(k)].pos + Vec2{0.0004, 0.0007};
    nodes.push_back({static_cast<int>(nodes.size()), near, true, {}});
  }
  const Deployment dep({0, 0, 1000, 1000}, std::move(nodes));
  const CommGraph graph(dep, 0.001);
  EXPECT_EQ(graph.csr_edges().size(), 20u);
  oracle::expect_graph_matches(graph, dep, 0.001);

  // Capping each axis at the alive count alone would still leave
  // 50000^2 tiles here; the grid must shrink as a whole.
  const Deployment many =
      Deployment::uniform_random({0, 0, 1000, 1000}, 50000, rng);
  EXPECT_TRUE(CommGraph(many, 1e-9).csr_edges().empty());
}

/// A seeded deployment for the oracle checks, optionally with extra
/// nodes on the far edges and corners of the bounds, where the tile
/// lookup clamps the column and row into range.
Deployment oracle_deployment(const FieldBounds& b, int n, double fail,
                             bool boundary, std::uint64_t seed) {
  Rng rng(seed);
  Deployment random = Deployment::uniform_random(b, n, rng);
  random.fail_random(fail, rng);
  std::vector<Node> nodes = random.nodes();
  if (boundary) {
    const double mx = 0.5 * (b.x0 + b.x1);
    const double my = 0.5 * (b.y0 + b.y1);
    for (const Vec2 p : {Vec2{b.x1, b.y1}, Vec2{b.x1, b.y0}, Vec2{b.x0, b.y1},
                         Vec2{b.x0, b.y0}, Vec2{b.x1, my}, Vec2{mx, b.y1},
                         Vec2{b.x1 - 0.3, b.y1}, Vec2{b.x1, b.y1 - 0.3}})
      nodes.push_back({static_cast<int>(nodes.size()), p, true, {}});
  }
  return Deployment(b, std::move(nodes));
}

TEST(CommGraph, MatchesBruteForceUnitDisc) {
  const struct {
    const char* name;
    FieldBounds bounds;
    int n;
    double range;
    double fail;
    bool boundary;
  } cases[] = {
      {"dead nodes", {0, 0, 40, 40}, 1600, 1.5, 0.2, false},
      {"offset origin, non-square", {-17.5, 230.25, 42.5, 250.25}, 1200, 1.3,
       0.0, true},
      {"range not dividing the sides", {5, 5, 36.7, 21.3}, 800, 2.9, 0.1, true},
      {"range wider than the field", {0, 0, 6, 4}, 60, 9.0, 0.0, true},
      {"sparse, few alive", {0, 0, 300, 200}, 400, 12.0, 0.9, true},
  };
  for (const int threads : {1, 4}) {
    exec::set_thread_count(threads);
    for (const auto& c : cases) {
      SCOPED_TRACE(testing::Message() << c.name << ", threads " << threads);
      const Deployment dep =
          oracle_deployment(c.bounds, c.n, c.fail, c.boundary, 21);
      const CommGraph graph(dep, c.range);
      oracle::expect_graph_matches(graph, dep, c.range);
      const FieldBounds& b = c.bounds;
      const int sink =
          dep.nearest_alive({0.5 * (b.x0 + b.x1), 0.5 * (b.y0 + b.y1)});
      ASSERT_GE(sink, 0);
      oracle::expect_built_by_rule(graph, RoutingTree(graph, sink));
    }
  }
  exec::set_thread_count(0);
}

TEST(RoutingTree, LevelsIncreaseByOneHop) {
  Rng rng(9);
  const Deployment dep = Deployment::uniform_random(kBounds, 1000, rng);
  const CommGraph graph(dep, 2.5);
  const int sink = dep.nearest_alive({25, 25});
  const RoutingTree tree(graph, sink);
  EXPECT_EQ(tree.level(sink), 0);
  EXPECT_EQ(tree.parent(sink), -1);
  for (int i = 0; i < dep.size(); ++i) {
    if (!tree.reachable(i) || i == sink) continue;
    EXPECT_EQ(tree.level(i), tree.level(tree.parent(i)) + 1);
  }
}

TEST(RoutingTree, PathToSinkDescendsLevels) {
  Rng rng(10);
  const Deployment dep = Deployment::uniform_random(kBounds, 1000, rng);
  const CommGraph graph(dep, 2.5);
  const int sink = dep.nearest_alive({0, 0});
  const RoutingTree tree(graph, sink);
  for (int i : {3, 99, 500}) {
    if (!tree.reachable(i)) continue;
    const auto path = tree.path_to_sink(i);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), i);
    EXPECT_EQ(path.back(), sink);
    EXPECT_EQ(static_cast<int>(path.size()), tree.level(i) + 1);
  }
}

TEST(RoutingTree, PostOrderIsLeavesFirst) {
  Rng rng(11);
  const Deployment dep = Deployment::uniform_random(kBounds, 500, rng);
  const CommGraph graph(dep, 2.5);
  const RoutingTree tree(graph, dep.nearest_alive({25, 25}));
  const auto& order = tree.post_order();
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(tree.level(order[i - 1]), tree.level(order[i]));
  EXPECT_EQ(order.back(), tree.sink());
  EXPECT_EQ(static_cast<int>(order.size()), tree.reachable_count());
}

TEST(RoutingTree, ChildrenInverseOfParent) {
  Rng rng(12);
  const Deployment dep = Deployment::uniform_random(kBounds, 300, rng);
  const CommGraph graph(dep, 3.0);
  const RoutingTree tree(graph, dep.nearest_alive({25, 25}));
  for (int u = 0; u < dep.size(); ++u) {
    for (int c : tree.children(u)) EXPECT_EQ(tree.parent(c), u);
  }
  oracle::expect_built_by_rule(graph, tree);
}

TEST(RoutingTree, DeadSinkThrows) {
  Rng rng(13);
  Deployment dep = Deployment::uniform_random(kBounds, 10, rng);
  dep.nodes()[0].alive = false;
  const CommGraph graph(dep, 5.0);
  EXPECT_THROW(RoutingTree(graph, 0), std::invalid_argument);
  EXPECT_THROW(RoutingTree(graph, -1), std::invalid_argument);
}

TEST(RoutingTree, ParentTieBreaksToLowestId) {
  // Node 3 sits in range of two level-1 candidates (1 and 2, both in
  // range of the sink): BFS must deterministically pick the lower id,
  // whatever order the frontier was discovered in.
  std::vector<Node> nodes = {{0, {0.0, 0.0}, true, {}},
                             {1, {1.0, 0.0}, true, {}},
                             {2, {0.6, 0.8}, true, {}},
                             {3, {1.4, 0.8}, true, {}}};
  const Deployment dep(kBounds, std::move(nodes));
  const CommGraph graph(dep, 1.1);
  const RoutingTree tree(graph, 0);
  EXPECT_EQ(tree.parent(1), 0);
  EXPECT_EQ(tree.parent(2), 0);
  EXPECT_EQ(tree.parent(3), 1);  // Not 2: lowest-id parent wins the tie.
  EXPECT_EQ(tree.level(3), 2);

  // Mirror the geometry so the higher id is discovered first: the choice
  // must not flip.
  std::vector<Node> swapped = {{0, {0.0, 0.0}, true, {}},
                               {1, {0.6, 0.8}, true, {}},
                               {2, {1.0, 0.0}, true, {}},
                               {3, {1.4, 0.8}, true, {}}};
  const Deployment dep2(kBounds, std::move(swapped));
  const RoutingTree tree2(CommGraph(dep2, 1.1), 0);
  EXPECT_EQ(tree2.parent(3), 1);
}

TEST(RoutingTree, PathToSinkEmptyForUnreachableAndBogusNodes) {
  // Two clusters out of radio range: 0-1 around the sink, 2-3 far away.
  std::vector<Node> nodes = {{0, {0, 0}, true, {}},
                             {1, {1, 0}, true, {}},
                             {2, {30, 30}, true, {}},
                             {3, {31, 30}, true, {}}};
  Deployment dep(kBounds, std::move(nodes));
  dep.nodes()[1].alive = false;  // Dead node: also never in the tree.
  const CommGraph graph(dep, 1.5);
  const RoutingTree tree(graph, 0);
  EXPECT_TRUE(tree.path_to_sink(2).empty());   // Disconnected.
  EXPECT_TRUE(tree.path_to_sink(3).empty());
  EXPECT_TRUE(tree.path_to_sink(1).empty());   // Dead.
  EXPECT_TRUE(tree.path_to_sink(-1).empty());  // Out of range.
  EXPECT_TRUE(tree.path_to_sink(99).empty());
  const auto own = tree.path_to_sink(0);  // The sink's path is itself.
  ASSERT_EQ(own.size(), 1u);
  EXPECT_EQ(own[0], 0);
}

TEST(Ledger, TransmitAndComputeAccounting) {
  Ledger ledger(3);
  ledger.transmit(0, 1, 10.0);
  ledger.transmit(1, 2, 4.0);
  ledger.compute(2, 100.0);
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 10.0);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 10.0);
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(1), 4.0);
  EXPECT_DOUBLE_EQ(ledger.total_tx_bytes(), 14.0);
  EXPECT_DOUBLE_EQ(ledger.total_rx_bytes(), 14.0);
  EXPECT_DOUBLE_EQ(ledger.total_ops(), 100.0);
  EXPECT_DOUBLE_EQ(ledger.mean_ops(), 100.0 / 3.0);
  EXPECT_DOUBLE_EQ(ledger.max_ops(), 100.0);
}

TEST(Ledger, BroadcastChargesOneTxManyRx) {
  Ledger ledger(4);
  ledger.broadcast(0, {1, 2, 3}, 5.0);
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 5.0);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 5.0);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(3), 5.0);
  EXPECT_DOUBLE_EQ(ledger.total_rx_bytes(), 15.0);
}

TEST(Ledger, MergeAddsAndMismatchThrows) {
  Ledger a(2), b(2), c(3);
  a.transmit(0, 1, 1.0);
  b.transmit(0, 1, 2.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.tx_bytes(0), 3.0);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Ledger, RejectsOutOfRangeNodes) {
  Ledger ledger(3);
  EXPECT_THROW(ledger.transmit(-1, 0, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.transmit(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.broadcast(3, {0}, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.broadcast(0, {1, -2}, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.transmit_lost(7, 1.0), std::out_of_range);
  EXPECT_THROW(ledger.compute(-1, 1.0), std::out_of_range);
  // A rejected charge must leave the ledger untouched.
  EXPECT_DOUBLE_EQ(ledger.total_tx_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_rx_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_ops(), 0.0);
}

TEST(Ledger, RejectsNegativeAndNonFiniteAmounts) {
  Ledger ledger(2);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ledger.transmit(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.transmit(0, 1, nan), std::invalid_argument);
  EXPECT_THROW(ledger.broadcast(0, {1}, inf), std::invalid_argument);
  EXPECT_THROW(ledger.transmit_lost(0, -0.5), std::invalid_argument);
  EXPECT_THROW(ledger.compute(0, nan), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ledger.total_tx_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_ops(), 0.0);
  // Zero-byte charges are legal (e.g. empty-payload control messages).
  ledger.transmit(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_tx_bytes(), 0.0);
}

TEST(Ledger, RejectsNegativeSize) {
  EXPECT_THROW(Ledger(-5), std::invalid_argument);
  // A zero-node ledger is legal (used by the energy model's edge cases).
  EXPECT_EQ(Ledger(0).size(), 0);
}

class NetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetProperty, TreeReachesWholeConnectedComponent) {
  Rng rng(GetParam());
  const Deployment dep = Deployment::uniform_random({0, 0, 30, 30}, 900, rng);
  const CommGraph graph(dep, 1.5);
  const int sink = dep.nearest_alive({15, 15});
  const RoutingTree tree(graph, sink);
  if (graph.is_connected()) {
    EXPECT_EQ(tree.reachable_count(), dep.alive_count());
  }
  EXPECT_GT(tree.reachable_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace isomap
