#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "exec/exec.hpp"
#include "isomap/node_selection.hpp"
#include "obs/obs.hpp"
#include "oracles/selection_full_scan.hpp"
#include "sim/scenario.hpp"

namespace isomap {
namespace {

TEST(Candidate, BorderRegionBounds) {
  EXPECT_TRUE(is_candidate(10.0, 10.0, 0.5));
  EXPECT_TRUE(is_candidate(10.49, 10.0, 0.5));
  EXPECT_TRUE(is_candidate(9.5, 10.0, 0.5));   // Inclusive boundary.
  EXPECT_FALSE(is_candidate(10.51, 10.0, 0.5));
  EXPECT_FALSE(is_candidate(8.0, 10.0, 0.5));
}

TEST(IsIsolineNode, RequiresBothConditions) {
  // Condition 1 fails: reading far from the level.
  EXPECT_FALSE(is_isoline_node(8.0, {12.0}, 10.0, 0.5));
  // Condition 2 fails: no neighbour across the level.
  EXPECT_FALSE(is_isoline_node(9.8, {9.5, 9.9}, 10.0, 0.5));
  // Both hold: reading just below, neighbour above.
  EXPECT_TRUE(is_isoline_node(9.8, {10.4}, 10.0, 0.5));
  // Symmetric: reading just above, neighbour below.
  EXPECT_TRUE(is_isoline_node(10.2, {9.7}, 10.0, 0.5));
}

TEST(IsIsolineNode, StrictCrossingExcludesEqualValues) {
  // The definition requires lambda strictly between the readings.
  EXPECT_FALSE(is_isoline_node(10.0, {10.0}, 10.0, 0.5));
  EXPECT_FALSE(is_isoline_node(9.9, {10.0}, 10.0, 0.5));
  EXPECT_TRUE(is_isoline_node(9.9, {10.01}, 10.0, 0.5));
}

TEST(IsIsolineNode, NoNeighboursNeverSelected) {
  EXPECT_FALSE(is_isoline_node(10.0, {}, 10.0, 0.5));
}

Scenario default_scenario(int n, std::uint64_t seed,
                          double side = 50.0) {
  ScenarioConfig config;
  config.num_nodes = n;
  config.field_side = side;
  config.seed = seed;
  return make_scenario(config);
}

TEST(SelectIsolineNodes, SelectedNodesSatisfyDefinition) {
  const Scenario s = default_scenario(2500, 1);
  const ContourQuery query = default_query(s.field);
  const auto selected = select_isoline_nodes(s.graph, s.readings, query);
  ASSERT_FALSE(selected.empty());
  const double eps = query.epsilon();
  for (const auto& entry : selected) {
    const double v = s.readings[static_cast<std::size_t>(entry.node)];
    EXPECT_LE(std::abs(v - entry.isolevel), eps + 1e-12);
    bool crossing = false;
    for (int nb : s.graph.neighbours(entry.node)) {
      const double nv = s.readings[static_cast<std::size_t>(nb)];
      crossing |= (v < entry.isolevel && entry.isolevel < nv) ||
                  (nv < entry.isolevel && entry.isolevel < v);
    }
    EXPECT_TRUE(crossing);
  }
}

TEST(SelectIsolineNodes, LargerEpsilonSelectsMore) {
  const Scenario s = default_scenario(2500, 2);
  ContourQuery narrow = default_query(s.field);
  narrow.epsilon_fraction = 0.02;
  ContourQuery wide = default_query(s.field);
  wide.epsilon_fraction = 0.2;
  const auto few = select_isoline_nodes(s.graph, s.readings, narrow);
  const auto many = select_isoline_nodes(s.graph, s.readings, wide);
  EXPECT_GT(many.size(), few.size());
}

TEST(SelectIsolineNodes, DeadNodesNeverSelected) {
  ScenarioConfig config;
  config.num_nodes = 2000;
  config.failure_fraction = 0.3;
  config.seed = 3;
  const Scenario s = make_scenario(config);
  const auto selected =
      select_isoline_nodes(s.graph, s.readings, default_query(s.field));
  for (const auto& entry : selected)
    EXPECT_TRUE(s.deployment.node(entry.node).alive);
}

TEST(SelectIsolineNodes, OpsAreBoundedByDegree) {
  const Scenario s = default_scenario(1000, 4);
  const ContourQuery query = default_query(s.field);
  std::vector<double> ops;
  select_isoline_nodes(s.graph, s.readings, query, &ops);
  const double levels = static_cast<double>(query.isolevels().size());
  for (int v = 0; v < s.deployment.size(); ++v) {
    if (!s.graph.alive(v)) continue;
    const double bound = levels + 2.0 * levels * s.graph.degree(v) + 1.0;
    EXPECT_LE(ops[static_cast<std::size_t>(v)], bound);
  }
}

// The paper's Theorem 4.1: isoline nodes scale as O(sqrt(n)). The theorem
// assumes a constant number of well-behaved contour regions in a growing
// field, which the scale-invariant sloped terrain plus a fixed absolute
// query window reproduce. Quadrupling n must roughly double (not
// quadruple) the selected count.
TEST(SelectIsolineNodes, CountScalesAsSqrtN) {
  double counts[2] = {0.0, 0.0};
  const int sizes[2] = {2500, 10000};
  for (int i = 0; i < 2; ++i) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioConfig config;
      config.num_nodes = sizes[i];
      // Field side sqrt(n) keeps density 1, the paper's normalization.
      config.field_side = std::sqrt(static_cast<double>(sizes[i]));
      config.field = FieldKind::kSloped;
      config.seed = seed;
      const Scenario s = make_scenario(config);
      const auto selected =
          select_isoline_nodes(s.graph, s.readings, scaling_query());
      std::set<int> distinct;
      for (const auto& e : selected) distinct.insert(e.node);
      counts[i] += static_cast<double>(distinct.size()) / 3.0;
    }
  }
  const double growth = counts[1] / counts[0];
  EXPECT_GT(growth, 1.4);  // More than constant.
  EXPECT_LT(growth, 3.0);  // Far less than linear (x4).
}

TEST(AdaptiveSelection, SelectedNodesStillSatisfyCrossing) {
  const Scenario s = default_scenario(2500, 21);
  const ContourQuery query = default_query(s.field);
  const auto selected = select_isoline_nodes_adaptive(
      s.graph, s.deployment, s.readings, query, 1.5);
  ASSERT_FALSE(selected.empty());
  for (const auto& entry : selected) {
    const double v = s.readings[static_cast<std::size_t>(entry.node)];
    bool crossing = false;
    for (int nb : s.graph.neighbours(entry.node)) {
      const double nv = s.readings[static_cast<std::size_t>(nb)];
      crossing |= (v < entry.isolevel && entry.isolevel < nv) ||
                  (nv < entry.isolevel && entry.isolevel < v);
    }
    EXPECT_TRUE(crossing);
  }
}

TEST(AdaptiveSelection, WiderStripSelectsMore) {
  const Scenario s = default_scenario(2500, 22);
  const ContourQuery query = default_query(s.field);
  const auto narrow = select_isoline_nodes_adaptive(
      s.graph, s.deployment, s.readings, query, 0.5);
  const auto wide = select_isoline_nodes_adaptive(
      s.graph, s.deployment, s.readings, query, 3.0);
  EXPECT_GT(wide.size(), narrow.size());
}

TEST(AdaptiveSelection, SelectionTracksLocalSlopeNotFixedEpsilon) {
  // On a steep field a node just outside the fixed border region must
  // still be selected by the adaptive rule when it is spatially close to
  // the isoline. Construct: plane with slope 1, isolevel 10, node at
  // value 10.4 (fixed eps = 0.05 * T; with T = 5, eps = 0.25 < 0.4) with
  // a neighbour across the level.
  std::vector<Node> nodes = {{0, {10.4, 5}, true, {}}, {1, {9.6, 5}, true, {}}};
  Deployment dep({0, 0, 20, 10}, std::move(nodes));
  const CommGraph graph(dep, 1.5);
  const std::vector<double> readings{10.4, 9.6};  // v = x on a slope-1 plane.
  ContourQuery query;
  query.lambda_lo = 5.0;
  query.lambda_hi = 15.0;
  query.granularity = 5.0;  // Isolevel at 10 (and 15).
  const auto fixed = select_isoline_nodes(graph, readings, query);
  const auto adaptive = select_isoline_nodes_adaptive(
      graph, dep, readings, query, /*strip_width=*/1.5);
  EXPECT_TRUE(fixed.empty());         // 0.4 > 0.25 fixed border.
  EXPECT_EQ(adaptive.size(), 2u);     // eps_i = 0.75 * slope 1 = 0.75.
}

/// The adaptive border half-width of `node`, recomputed from its 1-hop
/// neighbourhood exactly as select_isoline_nodes_adaptive documents it:
/// 0.5 * strip_width * the steepest |v_i - v_j| / dist(i, j), or the
/// query epsilon when the neighbourhood is flat.
double adaptive_epsilon(const Scenario& s, const std::vector<double>& readings,
                        int node, double strip_width, double fallback) {
  const double v = readings[static_cast<std::size_t>(node)];
  const Vec2 pos = s.deployment.node(node).pos;
  double slope = 0.0;
  for (int nb : s.graph.neighbours(node)) {
    const double dist = pos.distance_to(s.deployment.node(nb).pos);
    if (dist <= 1e-9) continue;
    slope = std::max(
        slope, std::abs(readings[static_cast<std::size_t>(nb)] - v) / dist);
  }
  return slope > 0.0 ? 0.5 * strip_width * slope : fallback;
}

TEST(AdaptiveSelection, MatchesFullScanWithPerNodeEpsilon) {
  // Random field with band-edge readings: exact levels, and flat patches
  // (a node and all its neighbours set to one reading, so the node falls
  // back to the query epsilon) sitting exactly on, or one ulp outside,
  // the fallback band edge. Every node's entries, ops and the
  // select.candidates total must equal the full-scan oracle run with the
  // node's own epsilon, plus 4 ops per neighbour for the slope loop, at
  // one and at four threads.
  ScenarioConfig config;
  config.num_nodes = 1500;
  config.seed = 17;
  config.field = FieldKind::kRandom;
  const Scenario s = make_scenario(config);
  const ContourQuery query = default_query(s.field, 5);
  const auto levels = query.isolevels();
  const double eps = query.epsilon();
  const double strip_width = 1.5;

  std::vector<double> readings = s.readings;
  Rng rng(77);
  for (int node = 0; node < s.graph.size(); ++node) {
    const double roll = rng.uniform();
    if (roll < 0.7) continue;  // Keep the field reading.
    const std::size_t li =
        static_cast<std::size_t>(rng.uniform(0.0, 0.999) *
                                 static_cast<double>(levels.size()));
    const double lambda = levels[li];
    double v = lambda;  // Exactly on the level.
    if (roll < 0.76) v = lambda + eps;
    else if (roll < 0.82) v = lambda - eps;
    else if (roll < 0.88) v = std::nextafter(lambda + eps, 1e30);
    else if (roll < 0.94) v = std::nextafter(lambda - eps, -1e30);
    readings[static_cast<std::size_t>(node)] = v;
    if (roll >= 0.94) continue;
    for (int nb : s.graph.neighbours(node))
      readings[static_cast<std::size_t>(nb)] = v;
  }

  std::vector<SelectionEntry> want;
  std::vector<double> want_ops(static_cast<std::size_t>(s.graph.size()), 0.0);
  double want_candidates = 0.0;
  int flat_nodes = 0;
  std::vector<int> admitted;
  for (int node = 0; node < s.graph.size(); ++node) {
    if (!s.graph.alive(node)) continue;
    const double node_eps =
        adaptive_epsilon(s, readings, node, strip_width, eps);
    flat_nodes += node_eps == eps;
    const NodeSelectionResult r = oracle::selection_full_scan(
        s.graph, readings, node, levels, node_eps, admitted);
    for (int idx : admitted)
      want.push_back({node, levels[static_cast<std::size_t>(idx)]});
    want_ops[static_cast<std::size_t>(node)] =
        r.ops + 4.0 * static_cast<double>(s.graph.neighbours(node).size());
    want_candidates += r.candidates;
  }
  ASSERT_FALSE(want.empty());
  EXPECT_GT(flat_nodes, 20);  // The fallback band edge is exercised.

  for (const int threads : {1, 4}) {
    exec::set_thread_count(threads);
    obs::MetricsRegistry metrics;
    std::vector<double> ops;
    const auto got = [&] {
      const obs::ObsScope scope(&metrics, nullptr);
      return select_isoline_nodes_adaptive(s.graph, s.deployment, readings,
                                           query, strip_width, &ops);
    }();
    exec::set_thread_count(0);
    ASSERT_EQ(got.size(), want.size()) << threads << " threads";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, want[i].node) << "entry " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].isolevel),
                std::bit_cast<std::uint64_t>(want[i].isolevel))
          << "entry " << i;
    }
    ASSERT_EQ(ops.size(), want_ops.size());
    for (std::size_t u = 0; u < ops.size(); ++u)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ops[u]),
                std::bit_cast<std::uint64_t>(want_ops[u]))
          << "node " << u << ", " << threads << " threads";
    EXPECT_EQ(metrics.counter("select.candidates"), want_candidates)
        << threads << " threads";
  }
}

class SelectionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionProperty, EverySelectedLevelIsQueried) {
  ScenarioConfig config;
  config.num_nodes = 1500;
  config.seed = GetParam();
  config.field = FieldKind::kRandom;
  const Scenario s = make_scenario(config);
  const ContourQuery query = default_query(s.field, 5);
  const auto levels = query.isolevels();
  const auto selected = select_isoline_nodes(s.graph, s.readings, query);
  for (const auto& entry : selected) {
    bool known = false;
    for (double l : levels) known |= std::abs(l - entry.isolevel) < 1e-12;
    EXPECT_TRUE(known);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(LevelRank, CountsStrictAndInclusiveRelations) {
  const std::vector<double> levels = {0.0, 10.0, 20.0, 30.0, 40.0};
  EXPECT_EQ(level_rank(levels, -5.0), std::make_pair(0, 0));
  EXPECT_EQ(level_rank(levels, 0.0), std::make_pair(0, 1));
  EXPECT_EQ(level_rank(levels, 5.0), std::make_pair(1, 1));
  EXPECT_EQ(level_rank(levels, 10.0), std::make_pair(1, 2));
  EXPECT_EQ(level_rank(levels, 39.9), std::make_pair(4, 4));
  EXPECT_EQ(level_rank(levels, 45.0), std::make_pair(5, 5));
  // Equal ranks <=> identical <,==,> relations against every level: the
  // tiniest step across a level changes the rank.
  EXPECT_NE(level_rank(levels, 20.0),
            level_rank(levels, std::nextafter(20.0, 0.0)));
}

TEST(BandedSelection, MatchesFullScanIncludingBandEdges) {
  // Readings seeded uniformly plus a heavy dose of exact band-edge and
  // exact-level values (including one-ulp perturbations): the banded
  // window must agree with the full level scan on every node.
  const Scenario s = default_scenario(800, 9);
  const ContourQuery query = default_query(s.field, 5);
  const auto levels = query.isolevels();
  const double eps = query.epsilon();

  std::vector<double> readings = s.readings;
  Rng rng(123);
  for (double& v : readings) {
    const double roll = rng.uniform();
    if (roll < 0.4) continue;  // Keep the field reading.
    const std::size_t li =
        static_cast<std::size_t>(rng.uniform(0.0, 0.999) *
                                 static_cast<double>(levels.size()));
    const double lambda = levels[li];
    if (roll < 0.55) v = lambda + eps;            // Exactly on the edge.
    else if (roll < 0.7) v = lambda - eps;
    else if (roll < 0.8) v = lambda;              // Exactly on the level.
    else if (roll < 0.9) v = std::nextafter(lambda + eps, 1e30);
    else v = std::nextafter(lambda - eps, -1e30);
  }

  std::vector<int> banded, reference;
  for (int node = 0; node < s.graph.size(); ++node) {
    if (!s.graph.alive(node)) continue;
    const NodeSelectionResult got =
        evaluate_node_selection(s.graph, readings, node, levels, eps, banded);
    const NodeSelectionResult want =
        oracle::selection_full_scan(s.graph, readings, node, levels, eps,
                                    reference);
    EXPECT_EQ(banded, reference) << "node " << node;
    EXPECT_EQ(got.candidates, want.candidates) << "node " << node;
    EXPECT_DOUBLE_EQ(got.ops, want.ops) << "node " << node;
  }
}

}  // namespace
}  // namespace isomap
