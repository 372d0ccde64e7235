#include <gtest/gtest.h>

#include "eval/metrics.hpp"
#include "sim/runners.hpp"

namespace isomap {
namespace {

Scenario noisy_scenario(double reading_noise, double position_error,
                        std::uint64_t seed = 1) {
  ScenarioConfig config;
  config.num_nodes = 2500;
  config.seed = seed;
  config.reading_noise_std = reading_noise;
  config.position_error_std = position_error;
  return make_scenario(config);
}

TEST(ReadingNoise, PerturbsReadings) {
  const Scenario clean = noisy_scenario(0.0, 0.0);
  const Scenario noisy = noisy_scenario(0.3, 0.0);
  double total_abs = 0.0;
  int counted = 0;
  for (const auto& node : noisy.deployment.nodes()) {
    if (!node.alive) continue;
    total_abs += std::abs(noisy.readings[static_cast<std::size_t>(node.id)] -
                          noisy.field.value(node.pos));
    ++counted;
  }
  EXPECT_NEAR(total_abs / counted, 0.3 * std::sqrt(2.0 / M_PI), 0.02);
  // Clean scenario readings are exact.
  for (const auto& node : clean.deployment.nodes()) {
    if (node.alive) {
      EXPECT_DOUBLE_EQ(clean.readings[static_cast<std::size_t>(node.id)],
                       clean.field.value(node.pos));
    }
  }
}

TEST(ReadingNoise, ModestNoiseDegradesAccuracyGracefully) {
  const Scenario clean = noisy_scenario(0.0, 0.0);
  const Scenario mild = noisy_scenario(0.1, 0.0);
  const Scenario heavy = noisy_scenario(0.8, 0.0);
  const auto levels = default_query(clean.field, 4).isolevels();
  auto accuracy = [&](const Scenario& s) {
    const IsoMapRun run = run_isomap(s, 4);
    return mapping_accuracy(run.result.map, s.field, levels, 70);
  };
  const double a_clean = accuracy(clean);
  const double a_mild = accuracy(mild);
  const double a_heavy = accuracy(heavy);
  EXPECT_GT(a_mild, 0.85);           // Mild sonar noise is absorbed.
  EXPECT_LT(a_heavy, a_clean);       // Heavy noise costs fidelity.
  EXPECT_GT(a_clean, 0.9);
}

TEST(PositionError, BelievedPositionsDifferButConnectivityUsesTruth) {
  const Scenario s = noisy_scenario(0.0, 0.5, 3);
  int displaced = 0;
  for (const auto& node : s.deployment.nodes()) {
    ASSERT_TRUE(node.believed.has_value());
    if (node.reported_pos().distance_to(node.pos) > 1e-9) ++displaced;
    EXPECT_TRUE(s.field.bounds().contains(node.reported_pos()));
  }
  EXPECT_GT(displaced, 2400);
  // Connectivity is built from physical positions: same degree as the
  // error-free deployment with the same seed.
  const Scenario exact = noisy_scenario(0.0, 0.0, 3);
  EXPECT_DOUBLE_EQ(s.graph.average_degree(), exact.graph.average_degree());
}

TEST(PositionError, LocalizationErrorShiftsReportedIsopositions) {
  const Scenario s = noisy_scenario(0.0, 0.5, 4);
  const IsoMapRun run = run_isomap(s, 4);
  // All report positions must be believed positions of their sources.
  for (const auto& r : run.result.sink_reports) {
    EXPECT_NEAR(
        r.position.distance_to(s.deployment.node(r.source).reported_pos()),
        0.0, 1e-9);
  }
}

TEST(PositionError, AccuracyDegradesWithLocalizationError) {
  const auto levels =
      default_query(noisy_scenario(0.0, 0.0, 5).field, 4).isolevels();
  auto accuracy = [&](double err) {
    double total = 0.0;
    for (std::uint64_t seed = 5; seed <= 7; ++seed) {
      const Scenario s = noisy_scenario(0.0, err, seed);
      const IsoMapRun run = run_isomap(s, 4);
      total += mapping_accuracy(run.result.map, s.field, levels, 60);
    }
    return total / 3.0;
  };
  const double exact = accuracy(0.0);
  const double large = accuracy(3.0);
  EXPECT_LT(large, exact);
  EXPECT_GT(exact, 0.9);
}

TEST(LossyLinks, IsoMapLosesReportsButStaysUsable) {
  const Scenario s = noisy_scenario(0.0, 0.0, 8);
  IsoMapOptions clean_options;
  clean_options.query = default_query(s.field, 4);
  IsoMapOptions lossy_options = clean_options;
  lossy_options.link.loss = 0.3;
  lossy_options.link.retries = 2;
  const IsoMapRun clean = run_isomap(s, clean_options);
  const IsoMapRun lossy = run_isomap(s, lossy_options);
  EXPECT_LT(lossy.result.delivered_reports, clean.result.delivered_reports);
  EXPECT_GT(lossy.result.delivered_reports, 0);
  // Retransmissions cost energy: tx bytes exceed the perfect-link run's
  // for the same offered load... unless drops removed enough batches;
  // check attempts via the tx/offered ratio instead.
  EXPECT_GT(lossy.ledger.total_tx_bytes(),
            0.8 * lossy.result.report_traffic_bytes);
}

TEST(LossyLinks, RetriesRecoverDeliveries) {
  const Scenario s = noisy_scenario(0.0, 0.0, 9);
  IsoMapOptions no_retry;
  no_retry.query = default_query(s.field, 4);
  no_retry.link.loss = 0.3;
  no_retry.link.retries = 0;
  IsoMapOptions with_retry = no_retry;
  with_retry.link.retries = 4;
  const IsoMapRun a = run_isomap(s, no_retry);
  const IsoMapRun b = run_isomap(s, with_retry);
  EXPECT_GT(b.result.delivered_reports, a.result.delivered_reports);
}

TEST(LossyLinks, TinyDBDeliveryDropsWithLoss) {
  ScenarioConfig config;
  config.num_nodes = 900;
  config.field_side = 30.0;
  config.grid_deployment = true;
  config.seed = 10;
  const Scenario s = make_scenario(config);
  TinyDBOptions lossy;
  lossy.link.loss = 0.2;
  lossy.link.retries = 1;
  const TinyDBRun clean = run_tinydb(s);
  const TinyDBRun dropped = run_tinydb(s, lossy);
  EXPECT_LT(dropped.result.reports_delivered,
            clean.result.reports_delivered);
  EXPECT_GT(dropped.result.reports_delivered, 0);
}

}  // namespace
}  // namespace isomap
