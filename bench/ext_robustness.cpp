// Extension: robustness of Iso-Map beyond the paper's perfect-link,
// noise-free assumptions — sweeps (a) link loss with ARQ, (b) sonar
// reading noise, (c) localization error, measuring fidelity and the
// retransmission energy overhead.
// Expectation: graceful degradation; ARQ recovers moderate loss at a
// bounded energy premium; fidelity falls once localization error
// approaches the report spacing s_d.

#include "bench/bench_common.hpp"

using namespace isomap;
using namespace isomap::bench;

int main() {
  const int kSeeds = 5;
  const Mica2Model energy;

  const std::string titlea = banner("Extension (a)", "link loss with ARQ (retries = 3)",
         "delivery recovered up to ~30% loss; tx energy premium bounded");
  Table a({"loss_pct", "delivered_reports", "delivered_sd", "accuracy_pct",
           "accuracy_sd", "tx_KB", "mean_energy_uJ"});
  const std::vector<double> losses = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  struct LossTrial {
    double delivered, acc, txkb, uj;
  };
  const auto loss_runs = sweep_trials(
      losses.size(), kSeeds, [&](std::size_t pi, int, std::uint64_t seed) {
        const Scenario s = harbor_scenario(2500, seed);
        IsoMapOptions options;
        options.query = default_query(s.field, 4);
        options.link.loss = losses[pi];
        options.link.retries = 3;
        options.link.seed = seed * 977;
        const IsoMapRun run = run_isomap(s, options);
        return LossTrial{static_cast<double>(run.result.delivered_reports),
                         mapping_accuracy(run.result.map, s.field,
                                          options.query.isolevels(), 70) *
                             100.0,
                         run.ledger.total_tx_bytes() / 1024.0,
                         energy.mean_node_energy_j(run.ledger) * 1e6};
      });
  for (std::size_t pi = 0; pi < losses.size(); ++pi) {
    RunningStats delivered, acc, txkb, uj;
    for (const LossTrial& t : loss_runs[pi]) {
      delivered.add(t.delivered);
      acc.add(t.acc);
      txkb.add(t.txkb);
      uj.add(t.uj);
    }
    a.row()
        .cell(losses[pi] * 100.0, 0)
        .cell(delivered.mean(), 1)
        .cell(delivered.stddev(), 1)
        .cell(acc.mean(), 1)
        .cell(acc.stddev(), 1)
        .cell(txkb.mean(), 2)
        .cell(uj.mean(), 2);
  }
  emit_table("ext_robustness_loss", titlea, a);

  const std::string titleb = banner("Extension (b)", "sonar reading noise (std dev, metres)",
         "mild noise absorbed by the regression; heavy noise floods the "
         "border region with spurious isoline nodes");
  Table b({"noise_std_m", "generated_reports", "sink_reports",
           "accuracy_pct", "accuracy_sd"});
  const std::vector<double> noises = {0.0, 0.05, 0.1, 0.2, 0.4, 0.8};
  struct NoiseTrial {
    double generated, sunk, acc;
  };
  const auto noise_runs = sweep_trials(
      noises.size(), kSeeds, [&](std::size_t pi, int, std::uint64_t seed) {
        ScenarioConfig config;
        config.num_nodes = 2500;
        config.seed = seed;
        config.reading_noise_std = noises[pi];
        const Scenario s = make_scenario(config);
        const IsoMapRun run = run_isomap(s, 4);
        return NoiseTrial{
            static_cast<double>(run.result.generated_reports),
            static_cast<double>(run.result.delivered_reports),
            mapping_accuracy(run.result.map, s.field,
                             default_query(s.field, 4).isolevels(), 70) *
                100.0};
      });
  for (std::size_t pi = 0; pi < noises.size(); ++pi) {
    RunningStats generated, sunk, acc;
    for (const NoiseTrial& t : noise_runs[pi]) {
      generated.add(t.generated);
      sunk.add(t.sunk);
      acc.add(t.acc);
    }
    b.row()
        .cell(noises[pi], 2)
        .cell(generated.mean(), 1)
        .cell(sunk.mean(), 1)
        .cell(acc.mean(), 1)
        .cell(acc.stddev(), 1);
  }
  emit_table("ext_robustness_noise", titleb, b);

  const std::string titlec = banner("Extension (c)", "localization error (std dev, field units)",
         "fidelity falls as error approaches the report spacing s_d = 4");
  Table c({"pos_err_std", "accuracy_pct", "accuracy_sd", "hausdorff_norm",
           "hausdorff_sd"});
  const std::vector<double> errs = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};
  struct LocTrial {
    double acc, haus;  // haus may be non-finite; filtered at accumulation.
  };
  const auto loc_runs = sweep_trials(
      errs.size(), kSeeds, [&](std::size_t pi, int, std::uint64_t seed) {
        ScenarioConfig config;
        config.num_nodes = 2500;
        config.seed = seed;
        config.position_error_std = errs[pi];
        const Scenario s = make_scenario(config);
        const IsoMapRun run = run_isomap(s, 4);
        const auto levels = default_query(s.field, 4).isolevels();
        return LocTrial{
            mapping_accuracy(run.result.map, s.field, levels, 70) * 100.0,
            isoline_hausdorff(run.result.map, s.field, levels, 120, 0.5)};
      });
  for (std::size_t pi = 0; pi < errs.size(); ++pi) {
    RunningStats acc, haus;
    for (const LocTrial& t : loc_runs[pi]) {
      acc.add(t.acc);
      if (std::isfinite(t.haus)) haus.add(t.haus / 50.0);
    }
    c.row()
        .cell(errs[pi], 2)
        .cell(acc.mean(), 1)
        .cell(acc.stddev(), 1)
        .cell(haus.mean(), 4)
        .cell(haus.stddev(), 4);
  }
  emit_table("ext_robustness_localization", titlec, c);
  return 0;
}
