#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "eval/metrics.hpp"
#include "sim/runners.hpp"

namespace isomap {
namespace {

Scenario scenario(std::uint64_t seed = 1, int n = 2500, double side = 50.0,
                  double failures = 0.0) {
  ScenarioConfig config;
  config.num_nodes = n;
  config.field_side = side;
  config.seed = seed;
  config.failure_fraction = failures;
  return make_scenario(config);
}

TEST(IsoMapProtocol, EndToEndProducesAccurateMap) {
  const Scenario s = scenario();
  const IsoMapRun run = run_isomap(s, 4);
  const ContourQuery query = default_query(s.field, 4);
  EXPECT_GT(run.result.delivered_reports, 10);
  const double accuracy =
      mapping_accuracy(run.result.map, s.field, query.isolevels(), 80);
  EXPECT_GT(accuracy, 0.85);
}

TEST(IsoMapProtocol, RejectsBadHeaderBytesAndLinkOptionsUpFront) {
  IsoMapOptions options;
  for (const double bytes : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), -5.0}) {
    IsoMapOptions bad = options;
    bad.header_bytes = bytes;
    EXPECT_THROW(IsoMapProtocol{bad}, std::invalid_argument)
        << "header_bytes " << bytes;
  }
  IsoMapOptions bad_loss = options;
  bad_loss.link.loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(IsoMapProtocol{bad_loss}, std::invalid_argument);
  IsoMapOptions bad_retries = options;
  bad_retries.link.retries = -4;
  EXPECT_THROW(IsoMapProtocol{bad_retries}, std::invalid_argument);
  options.header_bytes = 4.0;
  EXPECT_NO_THROW(IsoMapProtocol{options});
}

TEST(IsoMapProtocol, RejectsRegressionScopeBelowOneHop) {
  // A 0-hop scope leaves every fit degenerate: the run would generate no
  // reports at all.
  for (const int hops : {0, -1}) {
    IsoMapOptions bad;
    bad.query.regression_hops = hops;
    EXPECT_THROW(IsoMapProtocol{bad}, std::invalid_argument)
        << "regression_hops " << hops;
  }
  IsoMapOptions two_hops;
  two_hops.query.regression_hops = 2;
  EXPECT_NO_THROW(IsoMapProtocol{two_hops});
}

TEST(IsoMapProtocol, ReportCountIsFarBelowNodeCount) {
  const Scenario s = scenario();
  const IsoMapRun run = run_isomap(s, 4);
  EXPECT_LT(run.result.generated_reports, s.deployment.size() / 5);
  EXPECT_LE(run.result.delivered_reports, run.result.generated_reports);
}

TEST(IsoMapProtocol, FilteringReducesDeliveredReports) {
  const Scenario s = scenario(2);
  IsoMapOptions with;
  with.query = default_query(s.field, 4);
  IsoMapOptions without = with;
  without.query.enable_filtering = false;
  const IsoMapRun filtered = run_isomap(s, with);
  const IsoMapRun unfiltered = run_isomap(s, without);
  EXPECT_LT(filtered.result.delivered_reports,
            unfiltered.result.delivered_reports);
  EXPECT_EQ(unfiltered.result.delivered_reports,
            unfiltered.result.generated_reports);
  EXPECT_LT(filtered.result.report_traffic_bytes,
            unfiltered.result.report_traffic_bytes);
}

TEST(IsoMapProtocol, SinkReportsSurviveFilterInvariant) {
  // No redundant pair may remain at the sink when filtering is on.
  const Scenario s = scenario(3);
  IsoMapOptions options;
  options.query = default_query(s.field, 4);
  const IsoMapRun run = run_isomap(s, options);
  const InNetworkFilter filter = InNetworkFilter::from_query(options.query);
  const auto& reports = run.result.sink_reports;
  int redundant_pairs = 0;
  for (std::size_t i = 0; i < reports.size(); ++i)
    for (std::size_t j = i + 1; j < reports.size(); ++j)
      redundant_pairs += filter.redundant(reports[i], reports[j]) ? 1 : 0;
  // Reports arriving via different sink children are only compared at the
  // sink itself, which our model treats as a merge point too.
  EXPECT_EQ(redundant_pairs, 0);
}

TEST(IsoMapProtocol, TrafficLedgerIsConsistent) {
  const Scenario s = scenario(4);
  IsoMapOptions options;
  options.query = default_query(s.field, 4);
  options.account_local_measurement = false;
  const IsoMapRun run = run_isomap(s, options);
  // Without broadcasts every transmit has exactly one receiver.
  EXPECT_NEAR(run.ledger.total_tx_bytes(), run.ledger.total_rx_bytes(), 1e-9);
  EXPECT_NEAR(run.ledger.total_tx_bytes(), run.result.report_traffic_bytes,
              1e-9);
}

TEST(IsoMapProtocol, MeasurementAccountingAddsLocalTraffic) {
  const Scenario s = scenario(5);
  IsoMapOptions with;
  with.query = default_query(s.field, 4);
  IsoMapOptions without = with;
  without.account_local_measurement = false;
  const IsoMapRun a = run_isomap(s, with);
  const IsoMapRun b = run_isomap(s, without);
  EXPECT_GT(a.result.measurement_traffic_bytes, 0.0);
  EXPECT_DOUBLE_EQ(b.result.measurement_traffic_bytes, 0.0);
  EXPECT_GT(a.ledger.total_tx_bytes(), b.ledger.total_tx_bytes());
  // Report traffic itself is identical.
  EXPECT_DOUBLE_EQ(a.result.report_traffic_bytes,
                   b.result.report_traffic_bytes);
}

TEST(IsoMapProtocol, DisseminationAccountingChargesTreeEdges) {
  const Scenario s = scenario(6, 500, 22.0);
  IsoMapOptions options;
  options.query = default_query(s.field, 4);
  options.account_query_dissemination = true;
  const IsoMapRun run = run_isomap(s, options);
  const double expected =
      IsoMapOptions::kQueryBytes * (s.tree.reachable_count() - 1);
  EXPECT_DOUBLE_EQ(run.result.dissemination_traffic_bytes, expected);
}

TEST(IsoMapProtocol, SurvivesNodeFailures) {
  const Scenario s = scenario(7, 2500, 50.0, 0.2);
  const IsoMapRun run = run_isomap(s, 4);
  const ContourQuery query = default_query(s.field, 4);
  EXPECT_GT(run.result.delivered_reports, 0);
  const double accuracy =
      mapping_accuracy(run.result.map, s.field, query.isolevels(), 60);
  EXPECT_GT(accuracy, 0.6);
}

TEST(IsoMapProtocol, DeadNodesNeverCharged) {
  const Scenario s = scenario(8, 2000, 45.0, 0.3);
  const IsoMapRun run = run_isomap(s, 4);
  for (const auto& node : s.deployment.nodes()) {
    if (node.alive) continue;
    EXPECT_DOUBLE_EQ(run.ledger.tx_bytes(node.id), 0.0);
    EXPECT_DOUBLE_EQ(run.ledger.rx_bytes(node.id), 0.0);
    EXPECT_DOUBLE_EQ(run.ledger.ops(node.id), 0.0);
  }
}

TEST(IsoMapProtocol, ReportsCarrySelectedLevels) {
  const Scenario s = scenario(9);
  const IsoMapRun run = run_isomap(s, 4);
  const ContourQuery query = default_query(s.field, 4);
  const auto level_list = query.isolevels();
  std::set<double> levels(level_list.begin(), level_list.end());
  for (const auto& r : run.result.sink_reports) {
    EXPECT_TRUE(levels.count(r.isolevel)) << r.isolevel;
    EXPECT_GT(r.gradient.norm(), 0.0);
    EXPECT_TRUE(s.field.bounds().contains(r.position));
  }
}

TEST(IsoMapProtocol, PerNodeComputationIsBounded) {
  // The paper's claim: per-node computation is a constant independent of
  // network size. Compare the max per-node ops between n=900 and n=3600.
  const Scenario small = scenario(10, 900, 30.0);
  const Scenario large = scenario(10, 3600, 60.0);
  const IsoMapRun a = run_isomap(small, 4);
  const IsoMapRun b = run_isomap(large, 4);
  double max_a = 0.0, max_b = 0.0;
  for (int i = 0; i < small.deployment.size(); ++i)
    max_a = std::max(max_a, a.ledger.ops(i));
  for (int i = 0; i < large.deployment.size(); ++i)
    max_b = std::max(max_b, b.ledger.ops(i));
  // Allow some slack for filtering hotspots near the sink.
  EXPECT_LT(max_b, 6.0 * max_a);
}

class ProtocolProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolProperty, DeterministicForFixedSeed) {
  const Scenario s1 = scenario(GetParam());
  const Scenario s2 = scenario(GetParam());
  const IsoMapRun r1 = run_isomap(s1, 4);
  const IsoMapRun r2 = run_isomap(s2, 4);
  EXPECT_EQ(r1.result.delivered_reports, r2.result.delivered_reports);
  EXPECT_DOUBLE_EQ(r1.result.report_traffic_bytes,
                   r2.result.report_traffic_bytes);
  EXPECT_DOUBLE_EQ(r1.ledger.total_ops(), r2.ledger.total_ops());
}

TEST_P(ProtocolProperty, TrafficScalesSublinearly) {
  // Quadrupling n (at constant density, scale-invariant terrain, fixed
  // query window — Theorem 4.1's regime) must far less than quadruple the
  // number of generated reports.
  auto sloped = [&](int n, double side) {
    ScenarioConfig config;
    config.num_nodes = n;
    config.field_side = side;
    config.field = FieldKind::kSloped;
    config.seed = GetParam();
    return make_scenario(config);
  };
  const Scenario small = sloped(2500, 50.0);
  const Scenario large = sloped(10000, 100.0);
  IsoMapOptions options;
  options.query = scaling_query();
  options.query.enable_filtering = false;
  const IsoMapRun a = run_isomap(small, options);
  const IsoMapRun b = run_isomap(large, options);
  const double growth = static_cast<double>(b.result.generated_reports) /
                        std::max(1, a.result.generated_reports);
  EXPECT_LT(growth, 3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolProperty, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace isomap
