#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "eval/level_map.hpp"
#include "eval/metrics.hpp"
#include "sim/runners.hpp"

namespace isomap {
namespace {

Scenario grid_scenario(std::uint64_t seed = 1, int n = 2500,
                       double side = 50.0, double failures = 0.0) {
  ScenarioConfig config;
  config.num_nodes = n;
  config.field_side = side;
  config.grid_deployment = true;
  config.failure_fraction = failures;
  config.seed = seed;
  return make_scenario(config);
}

TEST(TinyDB, AllNodesReportWithoutFailures) {
  const Scenario s = grid_scenario();
  const TinyDBRun run = run_tinydb(s);
  EXPECT_EQ(run.result.reports_generated, 2500);
  EXPECT_EQ(run.result.reports_delivered, 2500);
  ASSERT_TRUE(run.result.reconstruction.has_value());
}

TEST(TinyDB, ReconstructionMatchesReadingsAtNodes) {
  const Scenario s = grid_scenario();
  const TinyDBRun run = run_tinydb(s);
  ASSERT_TRUE(run.result.reconstruction.has_value());
  for (int id : {0, 77, 1234, 2499}) {
    const Vec2 p = s.deployment.node(id).pos;
    EXPECT_NEAR(run.result.reconstruction->value(p),
                s.readings[static_cast<std::size_t>(id)], 1e-9);
  }
}

TEST(TinyDB, TrafficIsPerHopSum) {
  const Scenario s = grid_scenario(2, 400, 20.0);
  const TinyDBRun run = run_tinydb(s);
  double expected = 0.0;
  for (const auto& node : s.deployment.nodes()) {
    if (!node.alive || !s.tree.reachable(node.id)) continue;
    expected += 6.0 * s.tree.level(node.id);
  }
  EXPECT_NEAR(run.result.traffic_bytes, expected, 1e-9);
  EXPECT_NEAR(run.ledger.total_tx_bytes(), expected, 1e-9);
}

TEST(TinyDB, SinkInterpolationFillsFailedCells) {
  const Scenario s = grid_scenario(3, 2500, 50.0, 0.2);
  const TinyDBRun run = run_tinydb(s);
  EXPECT_LT(run.result.reports_delivered, 2500);
  ASSERT_TRUE(run.result.reconstruction.has_value());
  // Reconstruction still approximates the field at failed nodes.
  double err = 0.0;
  int counted = 0;
  for (const auto& node : s.deployment.nodes()) {
    if (node.alive) continue;
    err += std::abs(run.result.reconstruction->value(node.pos) -
                    s.field.value(node.pos));
    ++counted;
  }
  ASSERT_GT(counted, 0);
  EXPECT_LT(err / counted, 1.0);
}

TEST(TinyDB, LevelClassificationMatchesGroundTruthMostly) {
  const Scenario s = grid_scenario(4);
  const TinyDBRun run = run_tinydb(s);
  const ContourQuery query = default_query(s.field, 4);
  const auto levels = query.isolevels();
  const LevelMap truth = LevelMap::ground_truth(s.field, levels, 80, 80);
  const LevelMap est = LevelMap::rasterize(
      s.field.bounds(), 80, 80,
      [&](Vec2 p) { return run.result.level_index(p, levels); });
  EXPECT_GT(est.accuracy_against(truth), 0.9);
}

TEST(TinyDB, IsolinesExtractable) {
  const Scenario s = grid_scenario(5);
  const TinyDBRun run = run_tinydb(s);
  const ContourQuery query = default_query(s.field, 4);
  const auto lines = run.result.isolines(query.isolevels()[1], 120);
  EXPECT_FALSE(lines.empty());
}

TEST(TinyDB, EmptyNetworkYieldsNoReconstruction) {
  ScenarioConfig config;
  config.num_nodes = 100;
  config.field_side = 10.0;
  config.grid_deployment = true;
  config.seed = 6;
  Scenario s = make_scenario(config);
  // Kill everything except the sink, which then receives only itself.
  for (auto& node : s.deployment.nodes())
    if (node.id != s.tree.sink()) node.alive = false;
  Ledger ledger(s.deployment.size());
  const TinyDBResult result =
      TinyDBProtocol().run(s.deployment, s.readings, s.tree, ledger);
  EXPECT_EQ(result.reports_delivered, 1);  // The sink's own reading.
  EXPECT_TRUE(result.reconstruction.has_value());
}

TEST(Inlr, AggregationReducesRegionsBelowReports) {
  const Scenario s = grid_scenario(7);
  const InlrRun run = run_inlr(s);
  EXPECT_EQ(run.result.reports_generated, 2500);
  EXPECT_GT(run.result.regions_at_sink, 0);
  EXPECT_LT(run.result.regions_at_sink, run.result.reports_generated);
}

TEST(Inlr, TrafficStaysBelowTinyDBButSameOrder) {
  const Scenario s = grid_scenario(8);
  const TinyDBRun tinydb = run_tinydb(s);
  const InlrRun inlr = run_inlr(s);
  EXPECT_LT(inlr.result.traffic_bytes, tinydb.result.traffic_bytes * 1.3);
  EXPECT_GT(inlr.result.traffic_bytes, tinydb.result.traffic_bytes * 0.2);
}

TEST(Inlr, ComputationMuchHeavierThanTinyDB) {
  const Scenario s = grid_scenario(9);
  const TinyDBRun tinydb = run_tinydb(s);
  const InlrRun inlr = run_inlr(s);
  EXPECT_GT(inlr.ledger.total_ops(), 10.0 * tinydb.ledger.total_ops());
}

TEST(Inlr, PerNodeComputationGrowsWithNetworkSize) {
  // On scale-invariant terrain (constant gradients, so merge behaviour is
  // comparable across sizes) the root funnels more regions in a larger
  // network, so per-node computation grows — the Fig. 15 claim.
  auto sloped = [](int n, double side) {
    ScenarioConfig config;
    config.num_nodes = n;
    config.field_side = side;
    config.grid_deployment = true;
    config.field = FieldKind::kSloped;
    config.seed = 10;
    return make_scenario(config);
  };
  const InlrRun small = run_inlr(sloped(400, 20.0));
  const InlrRun large = run_inlr(sloped(2500, 50.0));
  EXPECT_GT(large.ledger.mean_ops(), small.ledger.mean_ops());
}

TEST(EScan, TuplesAggregateAndTrafficIsLinear) {
  const Scenario s = grid_scenario(11);
  const EScanRun run = run_escan(s);
  EXPECT_EQ(run.result.reports_generated, 2500);
  EXPECT_GT(run.result.tuples_at_sink, 0);
  EXPECT_LT(run.result.tuples_at_sink, 2500);
  EXPECT_GT(run.result.traffic_bytes, 0.0);
}

TEST(EScan, TighterToleranceKeepsMoreTuples) {
  const Scenario s = grid_scenario(12);
  EScanOptions tight;
  tight.value_tolerance = 0.2;
  EScanOptions loose;
  loose.value_tolerance = 5.0;
  const EScanRun a = run_escan(s, tight);
  const EScanRun b = run_escan(s, loose);
  EXPECT_GE(a.result.tuples_at_sink, b.result.tuples_at_sink);
}

TEST(Suppression, PartitionsNodesIntoSentAndSuppressed) {
  const Scenario s = grid_scenario(13);
  const SuppressionRun run = run_suppression(s);
  int reachable_alive = 0;
  for (const auto& node : s.deployment.nodes())
    if (node.alive && s.tree.reachable(node.id)) ++reachable_alive;
  EXPECT_EQ(run.result.reports_generated + run.result.reports_suppressed,
            reachable_alive);
  EXPECT_GT(run.result.reports_suppressed, 0);
  EXPECT_GT(run.result.reports_generated, 0);
}

TEST(Suppression, SuppressionBoundedByNeighbourhood) {
  // Generated reports remain a constant fraction of n (Theta(n)): going
  // from n=625 to n=2500 at the same density roughly quadruples reports.
  const SuppressionRun small = run_suppression(grid_scenario(14, 625, 25.0));
  const SuppressionRun large = run_suppression(grid_scenario(14, 2500, 50.0));
  const double growth = static_cast<double>(large.result.reports_generated) /
                        std::max(1, small.result.reports_generated);
  EXPECT_GT(growth, 2.0);
  EXPECT_LT(growth, 8.0);
}

TEST(Suppression, HigherToleranceSuppressesMore) {
  const Scenario s = grid_scenario(15);
  SuppressionOptions tight;
  tight.value_tolerance = 0.1;
  SuppressionOptions loose;
  loose.value_tolerance = 2.0;
  EXPECT_GT(run_suppression(s, loose).result.reports_suppressed,
            run_suppression(s, tight).result.reports_suppressed);
}

TEST(Inlr, SinkMapReconstructsCoarseField) {
  const Scenario s = grid_scenario(20);
  const InlrRun run = run_inlr(s);
  ASSERT_FALSE(run.result.sink_regions.empty());
  const auto levels = default_query(s.field, 4).isolevels();
  const LevelMap truth = LevelMap::ground_truth(s.field, levels, 60, 60);
  const LevelMap est = LevelMap::rasterize(
      s.field.bounds(), 60, 60,
      [&](Vec2 p) { return run.result.level_index(p, levels); });
  // The count-weighted region models are coarse, but still far above
  // the ~1/(levels+1) chance level.
  EXPECT_GT(est.accuracy_against(truth), 0.4);
  // The estimate at a region centre equals that region's model value.
  const auto& region = run.result.sink_regions.front();
  const double v = run.result.estimated_value(region.center());
  EXPECT_TRUE(std::isfinite(v));
}

TEST(Inlr, EmptySinkClassifiesZero) {
  InlrResult empty;
  EXPECT_TRUE(std::isnan(empty.estimated_value({1, 1})));
  EXPECT_EQ(empty.level_index({1, 1}, {5.0}), 0);
}

TEST(EScan, SinkMapValuesWithinTupleIntervals) {
  const Scenario s = grid_scenario(21);
  const EScanRun run = run_escan(s);
  ASSERT_FALSE(run.result.sink_tuples.empty());
  for (const auto& tuple : run.result.sink_tuples) {
    EXPECT_LE(tuple.vmin, tuple.vmax);
    EXPECT_GE(tuple.mid(), tuple.vmin);
    EXPECT_LE(tuple.mid(), tuple.vmax);
  }
  // Classification produces a spread of levels over the field.
  const auto levels = default_query(s.field, 4).isolevels();
  std::set<int> seen;
  for (int i = 0; i < 100; ++i)
    seen.insert(run.result.level_index(
        {0.5 * (i % 10) * 10.0 + 2.5, 0.5 * (i / 10) * 10.0 + 2.5}, levels));
  EXPECT_GE(seen.size(), 2u);
}

TEST(EScan, EmptySinkClassifiesZero) {
  EScanResult empty;
  EXPECT_TRUE(std::isnan(empty.estimated_value({1, 1})));
  EXPECT_EQ(empty.level_index({1, 1}, {5.0}), 0);
}

// --- The aggregating convergecast INLR and eScan share ----------------

int items_lost(const InlrResult& r) { return r.regions_lost; }
int items_lost(const EScanResult& r) { return r.tuples_lost; }
const std::vector<InlrRegion>& items(const InlrResult& r) {
  return r.sink_regions;
}
const std::vector<EScanTuple>& items(const EScanResult& r) {
  return r.sink_tuples;
}

/// Every sink item's fields as bit patterns, for bit-for-bit comparison.
std::vector<std::uint64_t> item_bits(const InlrResult& r) {
  std::vector<std::uint64_t> out;
  for (const InlrRegion& x : r.sink_regions)
    for (const double v : {x.c0, x.c1, x.c2, x.min_x, x.min_y, x.max_x,
                           x.max_y, static_cast<double>(x.count)})
      out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}
std::vector<std::uint64_t> item_bits(const EScanResult& r) {
  std::vector<std::uint64_t> out;
  for (const EScanTuple& x : r.sink_tuples)
    for (const double v : {x.vmin, x.vmax, x.min_x, x.min_y, x.max_x,
                           x.max_y, static_cast<double>(x.count)})
      out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Runs one protocol over a perfect, a lossy and an impaired link.
template <class Options, class RunFn>
void expect_link_accounting(RunFn run) {
  const Scenario s = grid_scenario(4, 400, 20.0);

  // Perfect link: nothing lost, no time taken, every report aggregated.
  const auto perfect = run(s, Options{});
  EXPECT_EQ(perfect.result.batches_lost, 0);
  EXPECT_EQ(items_lost(perfect.result), 0);
  EXPECT_EQ(perfect.result.collection_latency_s, 0.0);
  int aggregated = 0;
  for (const auto& item : items(perfect.result)) aggregated += item.count;
  EXPECT_EQ(aggregated, perfect.result.reports_generated);

  // Lossy link without retries: whole batches die, and one seed
  // reproduces the run bit for bit.
  Options lossy;
  lossy.link.loss = 0.3;
  lossy.link.retries = 0;
  lossy.link.seed = 17;
  const auto a = run(s, lossy);
  const auto b = run(s, lossy);
  EXPECT_GT(a.result.batches_lost, 0);
  EXPECT_GT(items_lost(a.result), 0);
  int delivered = 0;
  for (const auto& item : items(a.result)) delivered += item.count;
  EXPECT_LT(delivered, a.result.reports_generated);
  EXPECT_EQ(a.result.collection_latency_s, 0.0);
  EXPECT_EQ(a.result.batches_lost, b.result.batches_lost);
  EXPECT_EQ(items_lost(a.result), items_lost(b.result));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.result.traffic_bytes),
            std::bit_cast<std::uint64_t>(b.result.traffic_bytes));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.ledger.total_tx_bytes()),
            std::bit_cast<std::uint64_t>(b.ledger.total_tx_bytes()));
  EXPECT_EQ(item_bits(a.result), item_bits(b.result));

  // Impaired link: batches travel in virtual time.
  Options impaired;
  impaired.link.impair = ImpairmentConfig{};
  const auto slow = run(s, impaired);
  EXPECT_GT(slow.result.collection_latency_s, 0.0);
  EXPECT_EQ(slow.result.batches_lost, 0);
}

TEST(AggregatingConvergecast, InlrOverPerfectLossyAndImpairedLinks) {
  expect_link_accounting<InlrOptions>(
      [](const Scenario& s, const InlrOptions& o) { return run_inlr(s, o); });
}

TEST(AggregatingConvergecast, EScanOverPerfectLossyAndImpairedLinks) {
  expect_link_accounting<EScanOptions>(
      [](const Scenario& s, const EScanOptions& o) { return run_escan(s, o); });
}

TEST(Baselines, IsoMapBeatsAllOnTraffic) {
  // The headline comparison at the paper's default configuration.
  const Scenario s = grid_scenario(16);
  const IsoMapRun isomap = run_isomap(s, 4);
  const TinyDBRun tinydb = run_tinydb(s);
  const InlrRun inlr = run_inlr(s);
  const SuppressionRun sup = run_suppression(s);
  EXPECT_LT(isomap.result.report_traffic_bytes,
            0.25 * tinydb.result.traffic_bytes);
  EXPECT_LT(isomap.result.report_traffic_bytes,
            0.5 * inlr.result.traffic_bytes);
  EXPECT_LT(isomap.result.report_traffic_bytes,
            0.5 * sup.result.traffic_bytes);
}

}  // namespace
}  // namespace isomap
