// Extension: map-collection latency, two complementary measurements.
//
// Table 1 — level-slotted TDMA convergecast (the TAG scheme the paper
// assumes in Section 3.1 but does not evaluate). Each tree level
// transmits in its own slot, sized to the level's busiest node; the
// total is the time for one complete map collection at the CC1000's
// 38.4 kbps.
// Expectation: TinyDB's latency balloons with network size (nodes one
// hop from the sink forward O(n) reports, so their slot dominates);
// Iso-Map's near-sink forwarders carry only the filtered isoline
// reports, so latency grows mildly with depth.
//
// Table 2 — MEASURED end-to-end map latency over the link-impairment
// pipeline (net/impairment.hpp) with sliding-window ARQ: every report's
// per-hop ARQ completion times accumulate into the e2e_* fields of
// IsoMapResult. Swept over jitter and reordering; these are virtual-time
// model outputs (deterministic per seed), so the bench-regression gate
// holds them to the committed baseline.
// Expectation: e2e map latency grows monotonically with jitter (enforced
// below — the bench exits 1 on a violation) and degrades gracefully
// under reordering.

#include "bench/bench_common.hpp"

using namespace isomap;
using namespace isomap::bench;

namespace {

struct E2eStats {
  RunningStats first, last, mean, delivered, timeouts;
};

/// One impaired Iso-Map run on the fixed latency scenario; accumulates
/// the measured e2e latencies into `out`.
void impaired_trial(const ImpairmentConfig& impair, std::uint64_t seed,
                    E2eStats& out) {
  const Scenario scenario = sloped_scenario(side_for_diameter(15), seed);
  IsoMapOptions options;
  options.query = scaling_query();
  options.link.impair = impair;
  options.link.burst = GilbertElliottParams{};
  options.link.arq.max_frame_attempts = 6;
  const IsoMapRun run = run_isomap(scenario, options);
  out.first.add(run.result.e2e_first_latency_s);
  out.last.add(run.result.e2e_last_latency_s);
  out.mean.add(run.result.e2e_mean_latency_s);
  out.delivered.add(run.result.delivered_reports);
  out.timeouts.add(run.summary.counters.count("channel.arq_timeouts")
                       ? run.summary.counters.at("channel.arq_timeouts")
                       : 0.0);
}

}  // namespace

int main() {
  const std::string title = banner("Extension", "TDMA collection latency vs network diameter",
         "TinyDB latency grows ~linearly with n; Iso-Map with depth only");

  const int kSeeds = 3;
  Table table({"diameter_hops", "nodes", "tinydb_latency_s",
               "isomap_latency_s", "ratio"});
  for (const int diameter : {10, 20, 30, 40, 50}) {
    const double side = side_for_diameter(diameter);
    RunningStats tinydb_s, iso_s;
    for (std::uint64_t trial = 1; trial <= kSeeds; ++trial) {
      const std::uint64_t seed = trial_seed(trial);
      const Scenario grid = sloped_scenario(side, seed, /*grid=*/true);
      const Scenario random = sloped_scenario(side, seed);
      tinydb_s.add(run_tinydb(grid).result.latency_s());
      IsoMapOptions options;
      options.query = scaling_query();
      iso_s.add(run_isomap(random, options).result.latency_s());
    }
    table.row()
        .cell(diameter)
        .cell(static_cast<int>(side * side))
        .cell(tinydb_s.mean(), 3)
        .cell(iso_s.mean(), 3)
        .cell(tinydb_s.mean() / std::max(iso_s.mean(), 1e-12), 1);
  }
  emit_table("ext_latency", title, table);

  // Table 2: measured e2e map latency over the impaired ARQ pipeline.
  const std::string impair_title =
      banner("Extension", "measured e2e map latency under impairment",
             "e2e latency monotone in jitter; graceful under reordering");
  Table impaired({"jitter(ms)", "reorder(%)", "dup(%)", "delivered",
                  "arq_timeouts", "e2e_first(s)", "e2e_last(s)",
                  "e2e_mean(s)"});
  std::vector<double> last_by_jitter;
  for (const double jitter_ms : {0.0, 5.0, 15.0, 40.0}) {
    ImpairmentConfig impair;
    impair.jitter_s = jitter_ms * 1e-3;
    impair.reorder_prob = 0.10;
    impair.dup_prob = 0.05;
    E2eStats stats;
    for (std::uint64_t trial = 1; trial <= kSeeds; ++trial)
      impaired_trial(impair, trial_seed(trial), stats);
    impaired.row()
        .cell(jitter_ms, 0)
        .cell(10)
        .cell(5)
        .cell(stats.delivered.mean(), 1)
        .cell(stats.timeouts.mean(), 1)
        .cell(stats.first.mean(), 6)
        .cell(stats.last.mean(), 6)
        .cell(stats.mean.mean(), 6);
    last_by_jitter.push_back(stats.last.mean());
  }
  for (const double reorder_pct : {20.0, 40.0}) {
    ImpairmentConfig impair;
    impair.jitter_s = 5e-3;
    impair.reorder_prob = reorder_pct / 100.0;
    impair.dup_prob = 0.05;
    E2eStats stats;
    for (std::uint64_t trial = 1; trial <= kSeeds; ++trial)
      impaired_trial(impair, trial_seed(trial), stats);
    impaired.row()
        .cell(5, 0)
        .cell(reorder_pct, 0)
        .cell(5)
        .cell(stats.delivered.mean(), 1)
        .cell(stats.timeouts.mean(), 1)
        .cell(stats.first.mean(), 6)
        .cell(stats.last.mean(), 6)
        .cell(stats.mean.mean(), 6);
  }
  emit_table("ext_latency_impair", impair_title, impaired);

  // Sanity gate: the measured map latency must grow with jitter — the
  // whole point of carrying real per-hop completion times instead of a
  // synthetic TDMA estimate.
  for (std::size_t i = 1; i < last_by_jitter.size(); ++i) {
    if (last_by_jitter[i] + 1e-12 < last_by_jitter[i - 1]) {
      std::cerr << "ext_latency: e2e map latency not monotone in jitter ("
                << last_by_jitter[i - 1] << " -> " << last_by_jitter[i]
                << ")\n";
      return 1;
    }
  }
  return 0;
}
