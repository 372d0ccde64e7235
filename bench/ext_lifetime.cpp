// Extension: network lifetime under repeated mapping rounds. The paper
// argues per-round energy; this bench integrates it over time — each
// node starts with a battery budget, every mapping round charges its
// ledger, depleted nodes die (and stop routing), and the run continues
// until the map becomes unusable. Reported: rounds until first node
// death, until 10% dead, and until accuracy falls below 70%.
// Expectation: Iso-Map's lifetime is an order of magnitude beyond
// TinyDB's, and its deaths start along the isoline corridor rather than
// at the sink funnel.

#include "bench/bench_common.hpp"

using namespace isomap;
using namespace isomap::bench;

namespace {

struct LifetimeOutcome {
  int first_death = -1;
  int ten_pct_dead = -1;
  int map_unusable = -1;
  int rounds_run = 0;
};

/// Run mapping rounds with battery depletion until the map degrades or
/// `max_rounds` is hit. `protocol` is "isomap" or "tinydb".
LifetimeOutcome run_lifetime(const std::string& protocol, double battery_mj,
                             int max_rounds, std::uint64_t seed) {
  ScenarioConfig config;
  config.num_nodes = 900;
  config.field_side = 30.0;
  config.grid_deployment = protocol == "tinydb";
  config.seed = seed;
  Scenario s = make_scenario(config);
  const ContourQuery query = default_query(s.field, 4);
  const auto levels = query.isolevels();
  const Mica2Model energy;

  std::vector<double> spent_j(static_cast<std::size_t>(s.deployment.size()),
                              0.0);
  LifetimeOutcome outcome;
  const int n = s.deployment.size();

  for (int round = 1; round <= max_rounds; ++round) {
    outcome.rounds_run = round;
    // Rebuild connectivity over the survivors every round.
    CommGraph graph(s.deployment, config.effective_radio_range());
    const int sink = s.deployment.nearest_alive(
        {config.field_side / 2, config.field_side / 2});
    if (sink < 0) break;
    RoutingTree tree(graph, sink);

    std::vector<double> readings;
    s.deployment.sense(s.field, readings);

    Ledger ledger(n);
    double accuracy = 0.0;
    if (protocol == "isomap") {
      IsoMapOptions options;
      options.query = query;
      IsoMapProtocol proto(options);
      const IsoMapResult result =
          proto.run(readings, s.deployment, graph, tree, ledger);
      accuracy = mapping_accuracy(result.map, s.field, levels, 50);
    } else {
      TinyDBProtocol proto;
      const TinyDBResult result =
          proto.run(s.deployment, readings, tree, ledger);
      const LevelMap truth = LevelMap::ground_truth(s.field, levels, 50, 50);
      const LevelMap est = LevelMap::rasterize(
          s.field.bounds(), 50, 50,
          [&](Vec2 p) { return result.level_index(p, levels); });
      accuracy = est.accuracy_against(truth);
    }

    // Deplete batteries; kill exhausted nodes (the sink is mains-powered).
    int dead = 0;
    for (auto& node : s.deployment.nodes()) {
      if (!node.alive) {
        ++dead;
        continue;
      }
      spent_j[static_cast<std::size_t>(node.id)] +=
          energy.node_energy_j(ledger, node.id);
      if (node.id != sink &&
          spent_j[static_cast<std::size_t>(node.id)] * 1e3 > battery_mj) {
        node.alive = false;
        ++dead;
      }
    }
    if (dead > 0 && outcome.first_death < 0) outcome.first_death = round;
    if (dead >= n / 10 && outcome.ten_pct_dead < 0)
      outcome.ten_pct_dead = round;
    if (accuracy < 0.70) {
      outcome.map_unusable = round;
      break;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  const std::string title = banner("Extension", "network lifetime under repeated mapping rounds",
         "Iso-Map sustains an order of magnitude more rounds than TinyDB");

  const double kBatteryMj = 40.0;
  const int kMaxRounds = 4000;
  Table table({"protocol", "battery_mJ", "first_death_round",
               "ten_pct_dead_round", "map_unusable_round"});
  for (const std::string protocol : {"tinydb", "isomap"}) {
    RunningStats first, ten, unusable;
    for (std::uint64_t trial = 1; trial <= 2; ++trial) {
      const std::uint64_t seed = trial_seed(trial);
      const LifetimeOutcome outcome =
          run_lifetime(protocol, kBatteryMj, kMaxRounds, seed);
      if (outcome.first_death > 0) first.add(outcome.first_death);
      if (outcome.ten_pct_dead > 0) ten.add(outcome.ten_pct_dead);
      unusable.add(outcome.map_unusable > 0 ? outcome.map_unusable
                                            : outcome.rounds_run);
    }
    table.row()
        .cell(protocol)
        .cell(kBatteryMj, 0)
        .cell(first.count() ? first.mean() : -1.0, 0)
        .cell(ten.count() ? ten.mean() : -1.0, 0)
        .cell(unusable.mean(), 0);
  }
  emit_table("ext_lifetime", title, table);
  std::cout << "\n(-1 = never reached within " << kMaxRounds
            << " rounds; the sink is mains-powered and exempt.)\n";
  return 0;
}
