#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "eval/metrics.hpp"
#include "field/blended_field.hpp"
#include "isomap/continuous.hpp"
#include "sim/runners.hpp"

namespace isomap {
namespace {

TEST(BlendedField, InterpolatesValuesAndGradients) {
  const GaussianField a({0, 0, 10, 10}, 0.0, {1.0, 0.0}, {});
  const GaussianField b({0, 0, 10, 10}, 4.0, {0.0, 2.0}, {});
  BlendedField mid(a, b, 0.5);
  const Vec2 p{3.0, 4.0};
  EXPECT_NEAR(mid.value(p), 0.5 * a.value(p) + 0.5 * b.value(p), 1e-12);
  const Vec2 g = mid.gradient(p);
  EXPECT_NEAR(g.x, 0.5, 1e-9);
  EXPECT_NEAR(g.y, 1.0, 1e-9);
  mid.set_alpha(0.0);
  EXPECT_NEAR(mid.value(p), a.value(p), 1e-12);
  mid.set_alpha(1.0);
  EXPECT_NEAR(mid.value(p), b.value(p), 1e-12);
}

class ContinuousFixture : public ::testing::Test {
 protected:
  ContinuousFixture() : scenario_(make()) {}

  static Scenario make() {
    ScenarioConfig config;
    config.num_nodes = 2000;
    config.field_side = 45.0;
    config.seed = 21;
    return make_scenario(config);
  }

  ContinuousOptions options() const {
    ContinuousOptions options;
    options.base.query = default_query(scenario_.field, 4);
    return options;
  }

  Scenario scenario_;
};

TEST_F(ContinuousFixture, FirstRoundIsAllAdds) {
  ContinuousMapper mapper(options(), scenario_.deployment, scenario_.graph,
                          scenario_.tree);
  Ledger ledger(scenario_.deployment.size());
  const RoundResult r = mapper.round(scenario_.field, ledger);
  EXPECT_GT(r.adds, 10);
  EXPECT_EQ(r.refreshes, 0);
  EXPECT_EQ(r.withdrawals, 0);
  EXPECT_EQ(r.suppressed, 0);
  EXPECT_EQ(r.active_reports, r.adds);
  EXPECT_GT(r.delta_traffic_bytes, 0.0);
}

TEST_F(ContinuousFixture, StaticFieldSuppressesAfterFirstRound) {
  ContinuousMapper mapper(options(), scenario_.deployment, scenario_.graph,
                          scenario_.tree);
  Ledger ledger(scenario_.deployment.size());
  const RoundResult first = mapper.round(scenario_.field, ledger);
  const RoundResult second = mapper.round(scenario_.field, ledger);
  EXPECT_EQ(second.adds, 0);
  EXPECT_EQ(second.refreshes, 0);
  EXPECT_EQ(second.withdrawals, 0);
  EXPECT_EQ(second.suppressed, first.adds);
  EXPECT_DOUBLE_EQ(second.delta_traffic_bytes, 0.0);
  EXPECT_EQ(second.active_reports, first.active_reports);
}

TEST_F(ContinuousFixture, EvolvingFieldGeneratesDeltas) {
  const GaussianField before = harbor_bathymetry({0, 0, 45, 45});
  const GaussianField after = silted_harbor_bathymetry({0, 0, 45, 45});
  BlendedField field(before, after, 0.0);

  ContinuousOptions opts;
  opts.base.query = default_query(before, 4);
  ContinuousMapper mapper(opts, scenario_.deployment, scenario_.graph,
                          scenario_.tree);
  Ledger ledger(scenario_.deployment.size());
  mapper.round(field, ledger);

  field.set_alpha(0.6);  // Significant siltation between rounds.
  const RoundResult moved = mapper.round(field, ledger);
  EXPECT_GT(moved.adds + moved.refreshes + moved.withdrawals, 5);
  EXPECT_GT(moved.delta_traffic_bytes, 0.0);
}

TEST_F(ContinuousFixture, MapTracksEvolvingTruth) {
  const GaussianField before = harbor_bathymetry({0, 0, 45, 45});
  const GaussianField after = silted_harbor_bathymetry({0, 0, 45, 45});
  BlendedField field(before, after, 0.0);

  ContinuousOptions opts;
  opts.base.query = default_query(before, 4);
  ContinuousMapper mapper(opts, scenario_.deployment, scenario_.graph,
                          scenario_.tree);
  Ledger ledger(scenario_.deployment.size());
  const auto levels = opts.base.query.isolevels();
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    field.set_alpha(alpha);
    const RoundResult r = mapper.round(field, ledger);
    const double accuracy = mapping_accuracy(r.map, field, levels, 60);
    EXPECT_GT(accuracy, 0.8) << "alpha=" << alpha;
  }
}

TEST_F(ContinuousFixture, DeltaTrafficBelowSnapshotReruns) {
  // Over a slowly drifting field, total delta traffic must undercut
  // re-running the one-shot protocol every round.
  const GaussianField before = harbor_bathymetry({0, 0, 45, 45});
  const GaussianField after = silted_harbor_bathymetry({0, 0, 45, 45});
  const int kRounds = 8;

  ContinuousOptions opts;
  opts.base.query = default_query(before, 4);
  ContinuousMapper mapper(opts, scenario_.deployment, scenario_.graph,
                          scenario_.tree);
  Ledger cont_ledger(scenario_.deployment.size());
  BlendedField field(before, after, 0.0);
  double delta_total = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    field.set_alpha(round / double(kRounds * 4));  // Slow drift.
    delta_total += mapper.round(field, cont_ledger).delta_traffic_bytes;
  }

  double snapshot_total = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    field.set_alpha(round / double(kRounds * 4));
    Ledger ledger(scenario_.deployment.size());
    IsoMapOptions options = opts.base;
    options.query.enable_filtering = false;  // Match continuous semantics.
    IsoMapProtocol protocol(options);
    std::vector<double> readings;
    scenario_.deployment.sense(field, readings);
    const IsoMapResult result =
        protocol.run(readings, scenario_.deployment, scenario_.graph,
                     scenario_.tree, ledger);
    snapshot_total += result.report_traffic_bytes;
  }
  EXPECT_LT(delta_total, 0.5 * snapshot_total);
}

TEST_F(ContinuousFixture, SoftStateExpiresDeadNodesEntries) {
  // Nodes die without withdrawing; with soft-state expiry their sink
  // entries age out and the table shrinks back to the live selection.
  ContinuousOptions opts = options();
  opts.stale_rounds = 4;
  Scenario damaged = make();  // Private copy whose nodes we will kill.
  CommGraph graph(damaged.deployment, damaged.config.effective_radio_range());
  RoutingTree tree(graph, damaged.tree.sink());
  ContinuousMapper mapper(opts, damaged.deployment, graph, tree);
  Ledger ledger(damaged.deployment.size());

  const RoundResult first = mapper.round(damaged.field, ledger);
  ASSERT_GT(first.active_reports, 10);

  // Kill a quarter of the nodes and rebuild the topology.
  Rng rng(99);
  damaged.deployment.fail_random(0.25, rng);
  CommGraph graph2(damaged.deployment,
                   damaged.config.effective_radio_range());
  const int sink = damaged.deployment.nearest_alive({22.5, 22.5});
  ASSERT_GE(sink, 0);
  RoutingTree tree2(graph2, sink);
  mapper.set_topology(damaged.deployment, graph2, tree2);

  int expired_total = 0;
  RoundResult last{{}, ContourMap({0, 0, 45, 45}, std::vector<LevelRegion>{})};
  for (int round = 0; round < 6; ++round) {
    last = mapper.round(damaged.field, ledger);
    expired_total += last.expired;
  }
  EXPECT_GT(expired_total, 0);  // Dead nodes' entries aged out.
  // Every remaining sink entry belongs to an alive node.
  EXPECT_LE(last.active_reports, first.active_reports);
}

TEST_F(ContinuousFixture, KeepalivesRefreshUnchangedEntries) {
  ContinuousOptions opts = options();
  opts.stale_rounds = 4;
  ContinuousMapper mapper(opts, scenario_.deployment, scenario_.graph,
                          scenario_.tree);
  Ledger ledger(scenario_.deployment.size());
  mapper.round(scenario_.field, ledger);
  int keepalives = 0, expired = 0;
  for (int round = 0; round < 6; ++round) {
    const RoundResult r = mapper.round(scenario_.field, ledger);
    keepalives += r.keepalives;
    expired += r.expired;
  }
  EXPECT_GT(keepalives, 0);   // Static field: entries kept alive...
  EXPECT_EQ(expired, 0);      // ...so nothing expires.
}

TEST_F(ContinuousFixture, RejectsBadOptionsBeforeAnyCharge) {
  const auto rejects = [&](const ContinuousOptions& opts) {
    EXPECT_THROW(ContinuousMapper(opts, scenario_.deployment,
                                  scenario_.graph, scenario_.tree),
                 std::invalid_argument);
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The fit caches hold 1-hop neighbourhoods: any other scope is refused
  // rather than silently ignored.
  for (const int hops : {-1, 0, 2}) {
    ContinuousOptions opts = options();
    opts.base.query.regression_hops = hops;
    rejects(opts);
  }
  for (const double v : {kNaN, kInf, -4.0}) {
    ContinuousOptions opts = options();
    opts.withdraw_bytes = v;
    rejects(opts);
    opts = options();
    opts.beacon_bytes = v;
    rejects(opts);
    opts = options();
    opts.gradient_refresh_deg = v;
    rejects(opts);
  }
  ContinuousOptions opts = options();
  opts.stale_rounds = -3;
  rejects(opts);

  // Zero is a valid value for every one of them.
  opts = options();
  opts.withdraw_bytes = 0.0;
  opts.beacon_bytes = 0.0;
  opts.gradient_refresh_deg = 0.0;
  opts.stale_rounds = 0;
  ContinuousMapper mapper(opts, scenario_.deployment, scenario_.graph,
                          scenario_.tree);
  Ledger ledger(scenario_.deployment.size());
  EXPECT_NO_THROW(mapper.round(scenario_.field, ledger));
}

TEST(ContinuousMapper, WithdrawalsWhenIsolineLeaves) {
  // A field whose single isoline moves across the area: nodes on the old
  // isoline must withdraw.
  ScenarioConfig config;
  config.num_nodes = 1200;
  config.field_side = 35.0;
  config.seed = 5;
  const Scenario s = make_scenario(config);
  const GaussianField low({0, 0, 35, 35}, 0.0, {1.0, 0.0}, {});
  const GaussianField high({0, 0, 35, 35}, 20.0, {1.0, 0.0}, {});
  BlendedField field(low, high, 0.0);

  ContinuousOptions opts;
  opts.base.query.lambda_lo = 0.0;
  opts.base.query.lambda_hi = 40.0;
  opts.base.query.granularity = 10.0;
  ContinuousMapper mapper(opts, s.deployment, s.graph, s.tree);
  Ledger ledger(s.deployment.size());
  const RoundResult r1 = mapper.round(field, ledger);
  ASSERT_GT(r1.adds, 0);
  field.set_alpha(1.0);  // Shift the ramp by 20 units of value.
  const RoundResult r2 = mapper.round(field, ledger);
  EXPECT_GT(r2.withdrawals, 0);
  EXPECT_GT(r2.adds, 0);
}

}  // namespace
}  // namespace isomap
