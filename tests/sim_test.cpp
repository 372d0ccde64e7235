#include <gtest/gtest.h>

#include <cmath>

#include "eval/metrics.hpp"
#include "exec/exec.hpp"
#include "field/grid_field.hpp"
#include "sim/runners.hpp"
#include "sim/scenario.hpp"

namespace isomap {
namespace {

TEST(ScenarioConfig, DensityAndAutoRadioRange) {
  ScenarioConfig config;
  config.num_nodes = 2500;
  config.field_side = 50.0;
  EXPECT_DOUBLE_EQ(config.density(), 1.0);
  EXPECT_DOUBLE_EQ(config.effective_radio_range(), 1.5);
  config.num_nodes = 10000;  // Density 4.
  EXPECT_DOUBLE_EQ(config.effective_radio_range(), 0.75);
  config.radio_range = 2.0;  // Explicit override wins.
  EXPECT_DOUBLE_EQ(config.effective_radio_range(), 2.0);
}

TEST(MakeScenario, DeterministicForSeed) {
  ScenarioConfig config;
  config.num_nodes = 500;
  config.field_side = 25.0;
  config.seed = 42;
  const Scenario a = make_scenario(config);
  const Scenario b = make_scenario(config);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.deployment.node(i).pos, b.deployment.node(i).pos);
    EXPECT_DOUBLE_EQ(a.readings[static_cast<std::size_t>(i)],
                     b.readings[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(a.tree.sink(), b.tree.sink());
}

TEST(MakeScenario, IdenticalAcrossThreadCounts) {
  // Field sampling, the graph and the tree run on the exec pool; the
  // reading noise is drawn serially in node order after the sampling.
  ScenarioConfig config;
  config.num_nodes = 6000;
  config.field_side = 70.0;
  config.failure_fraction = 0.1;
  config.reading_noise_std = 0.05;
  config.seed = 9;
  exec::set_thread_count(1);
  const Scenario a = make_scenario(config);
  exec::set_thread_count(4);
  const Scenario b = make_scenario(config);
  exec::set_thread_count(0);
  EXPECT_EQ(a.readings, b.readings);
  EXPECT_EQ(a.graph.csr_offsets(), b.graph.csr_offsets());
  EXPECT_EQ(a.graph.csr_edges(), b.graph.csr_edges());
  EXPECT_EQ(a.tree.post_order(), b.tree.post_order());
  for (int v = 0; v < config.num_nodes; ++v)
    ASSERT_EQ(a.tree.parent(v), b.tree.parent(v)) << v;
}

TEST(MakeScenario, DifferentSeedsDiffer) {
  ScenarioConfig config;
  config.num_nodes = 100;
  config.field_side = 10.0;
  config.seed = 1;
  const Scenario a = make_scenario(config);
  config.seed = 2;
  const Scenario b = make_scenario(config);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    same += (a.deployment.node(i).pos == b.deployment.node(i).pos) ? 1 : 0;
  EXPECT_LT(same, 5);
}

TEST(MakeScenario, GridDeploymentAndFailures) {
  ScenarioConfig config;
  config.num_nodes = 400;
  config.field_side = 20.0;
  config.grid_deployment = true;
  config.failure_fraction = 0.25;
  config.seed = 3;
  const Scenario s = make_scenario(config);
  EXPECT_EQ(s.deployment.alive_count(), 300);
  EXPECT_TRUE(s.deployment.node(s.tree.sink()).alive);
}

TEST(MakeScenario, SinkNearRequestedPosition) {
  ScenarioConfig config;
  config.num_nodes = 1000;
  config.field_side = 50.0;
  config.sink_fx = 0.0;
  config.sink_fy = 0.0;
  config.seed = 4;
  const Scenario s = make_scenario(config);
  EXPECT_LT(s.deployment.node(s.tree.sink()).pos.norm(), 5.0);
}

TEST(MakeScenario, PaperDefaultsGiveDegreeSeven) {
  ScenarioConfig config;
  config.seed = 5;
  const Scenario s = make_scenario(config);
  EXPECT_NEAR(s.graph.average_degree(), 7.0, 1.0);
  EXPECT_TRUE(s.graph.is_connected() || s.tree.reachable_count() > 2400);
}

TEST(MakeScenario, FieldKindsProduceDifferentFields) {
  ScenarioConfig config;
  config.num_nodes = 100;
  config.field_side = 50.0;
  config.seed = 6;
  config.field = FieldKind::kHarbor;
  const Scenario harbor = make_scenario(config);
  config.field = FieldKind::kSilted;
  const Scenario silted = make_scenario(config);
  const auto [lo_h, hi_h] = harbor.field.value_range(60);
  const auto [lo_s, hi_s] = silted.field.value_range(60);
  EXPECT_LT(lo_s, lo_h);
}

TEST(DefaultQuery, SpansFieldRangeWithRequestedLevels) {
  const Scenario s = make_scenario(ScenarioConfig{});
  for (int levels : {2, 4, 8}) {
    const ContourQuery q = default_query(s.field, levels);
    EXPECT_EQ(static_cast<int>(q.isolevels().size()), levels);
    const auto [lo, hi] = s.field.value_range(60);
    for (double l : q.isolevels()) {
      EXPECT_GT(l, lo);
      EXPECT_LT(l, hi + 1e-9);
    }
  }
  EXPECT_THROW(default_query(s.field, 0), std::invalid_argument);
}

TEST(MakeScenarioWithField, UsesSuppliedFieldAndBounds) {
  auto grid = std::make_shared<GridField>(
      GridField::sample(harbor_bathymetry({10, 10, 60, 60}), 40, 40));
  ScenarioConfig config;
  config.num_nodes = 400;
  config.seed = 9;
  const Scenario s = make_scenario_with_field(config, grid);
  EXPECT_DOUBLE_EQ(s.config.field_side, 50.0);
  EXPECT_EQ(&s.field, grid.get());
  for (const auto& node : s.deployment.nodes()) {
    EXPECT_GE(node.pos.x, 10.0);
    EXPECT_LE(node.pos.x, 60.0);
  }
  for (const auto& node : s.deployment.nodes()) {
    if (node.alive) {
      EXPECT_DOUBLE_EQ(s.readings[static_cast<std::size_t>(node.id)],
                       grid->value(node.pos));
    }
  }
}

TEST(MakeScenarioWithField, NullFieldThrows) {
  EXPECT_THROW(make_scenario_with_field(ScenarioConfig{}, nullptr),
               std::invalid_argument);
}

TEST(MakeScenarioWithField, TraceDrivenRunMatchesSyntheticClosely) {
  // Sampling the synthetic harbor into a dense trace and driving the
  // protocol from the trace must reproduce nearly the same map quality.
  ScenarioConfig config;
  config.num_nodes = 2500;
  config.seed = 10;
  const Scenario synthetic = make_scenario(config);
  auto grid = std::make_shared<GridField>(
      GridField::sample(synthetic.field, 201, 201));
  const Scenario traced = make_scenario_with_field(config, grid);
  // Same deployment (same seed stream).
  EXPECT_EQ(synthetic.deployment.node(77).pos, traced.deployment.node(77).pos);

  const IsoMapRun a = run_isomap(synthetic, 4);
  const IsoMapRun b = run_isomap(traced, 4);
  const auto levels = default_query(synthetic.field, 4).isolevels();
  const double acc_a =
      mapping_accuracy(a.result.map, synthetic.field, levels, 60);
  const double acc_b = mapping_accuracy(b.result.map, *grid, levels, 60);
  EXPECT_NEAR(acc_a, acc_b, 0.05);
}

TEST(Runners, AllProtocolsRunOnOneScenario) {
  ScenarioConfig config;
  config.num_nodes = 900;
  config.field_side = 30.0;
  config.grid_deployment = true;
  config.seed = 7;
  const Scenario s = make_scenario(config);
  EXPECT_GT(run_isomap(s, 4).result.delivered_reports, 0);
  EXPECT_GT(run_tinydb(s).result.reports_delivered, 0);
  EXPECT_GT(run_inlr(s).result.regions_at_sink, 0);
  EXPECT_GT(run_escan(s).result.tuples_at_sink, 0);
  EXPECT_GT(run_suppression(s).result.reports_generated, 0);
}

}  // namespace
}  // namespace isomap
