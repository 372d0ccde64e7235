// Extension: chaos engineering for the convergecast — mid-run node
// crashes, correlated region blackouts and Gilbert–Elliott bursty links,
// with the self-healing routing repair on and off.
// Expectation: with self-healing, delivery degrades gracefully (>= ~90%
// of fault-free deliveries at 10% mid-run crashes) at a small repair
// energy premium; without it every crash silently swallows a subtree.
// Every run is checked against the loss-accounting identity
//   generated == delivered + filtered + lost_channel + lost_crash
// and the bench exits non-zero on any violation.

#include <atomic>

#include "bench/bench_common.hpp"
#include "eval/heatmap.hpp"
#include "obs/node_telemetry.hpp"

using namespace isomap;
using namespace isomap::bench;

namespace {

// Incremented from concurrent trials; atomic so the count stays exact.
std::atomic<int> identity_violations{0};

/// Every generated report must be delivered, filtered or accounted as
/// lost — a silent loss is a bug, not a data point.
void check_identity(const IsoMapRun& run) {
  const auto& r = run.result;
  const int accounted = r.delivered_reports + r.filtered_reports +
                        r.lost_channel_reports + r.lost_crash_reports;
  if (accounted != r.generated_reports) {
    std::cerr << "[ext_chaos] ACCOUNTING VIOLATION: generated="
              << r.generated_reports << " but accounted=" << accounted
              << " (delivered=" << r.delivered_reports
              << " filtered=" << r.filtered_reports
              << " lost_channel=" << r.lost_channel_reports
              << " lost_crash=" << r.lost_crash_reports << ")\n";
    ++identity_violations;
  }
}

IsoMapRun chaos_run(const Scenario& s, double crash_fraction,
                    std::uint64_t seed, bool self_healing = true,
                    const std::optional<GilbertElliottParams>& burst = {},
                    int retries = 3) {
  IsoMapOptions options = isomap_options(s, 4);
  options.fault.crash_fraction = crash_fraction;
  options.fault.seed = seed * 1013;
  options.fault.self_healing = self_healing;
  options.link.burst = burst;
  options.link.retries = retries;
  options.link.seed = seed * 977;
  const IsoMapRun run = run_isomap(s, options);
  check_identity(run);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 2500;
  const int kSeeds = argc > 2 ? std::atoi(argv[2]) : 3;
  const Mica2Model energy;

  const std::string titlea = banner("Chaos (a)",
         "mid-run crash sweep, self-healing routing (nodes = " +
             std::to_string(nodes) + ")",
         "delivery ratio >= ~90% at 10% crashes; repair cost a few KB");
  Table a({"crash_pct", "crashed", "delivered_ratio_pct", "lost_crash",
           "lost_channel", "repairs", "repair_KB", "accuracy_pct",
           "mean_energy_uJ"});
  const std::vector<double> crash_fracs = {0.0, 0.02, 0.05, 0.10, 0.20};
  struct CrashTrial {
    double crashed, ratio, lcrash, lchan, repairs, rkb, acc, uj;
  };
  const auto crash_runs = sweep_trials(
      crash_fracs.size(), kSeeds, [&](std::size_t pi, int, std::uint64_t seed) {
        const double crash = crash_fracs[pi];
        const Scenario s = harbor_scenario(nodes, seed);
        const IsoMapRun clean = chaos_run(s, 0.0, seed);
        const IsoMapRun run = crash > 0.0 ? chaos_run(s, crash, seed) : clean;
        return CrashTrial{
            static_cast<double>(run.result.crashed_nodes),
            clean.result.delivered_reports
                ? 100.0 * run.result.delivered_reports /
                      clean.result.delivered_reports
                : 0.0,
            static_cast<double>(run.result.lost_crash_reports),
            static_cast<double>(run.result.lost_channel_reports),
            static_cast<double>(run.result.route_repairs),
            run.result.repair_traffic_bytes / 1024.0,
            mapping_accuracy(run.result.map, s.field,
                             default_query(s.field, 4).isolevels(), 70) *
                100.0,
            energy.mean_node_energy_j(run.ledger) * 1e6};
      });
  for (std::size_t pi = 0; pi < crash_fracs.size(); ++pi) {
    RunningStats crashed, ratio, lcrash, lchan, repairs, rkb, acc, uj;
    for (const CrashTrial& t : crash_runs[pi]) {
      crashed.add(t.crashed);
      ratio.add(t.ratio);
      lcrash.add(t.lcrash);
      lchan.add(t.lchan);
      repairs.add(t.repairs);
      rkb.add(t.rkb);
      acc.add(t.acc);
      uj.add(t.uj);
    }
    a.row()
        .cell(crash_fracs[pi] * 100.0, 0)
        .cell(crashed.mean(), 1)
        .cell(ratio.mean(), 1)
        .cell(lcrash.mean(), 1)
        .cell(lchan.mean(), 1)
        .cell(repairs.mean(), 1)
        .cell(rkb.mean(), 2)
        .cell(acc.mean(), 1)
        .cell(uj.mean(), 2);
  }
  emit_table("ext_chaos_crash", titlea, a);

  const std::string titleb = banner("Chaos (b)", "bursty links (Gilbert-Elliott) x mid-run crashes",
         "burst losses beyond ARQ's reach shift losses from crash to "
         "channel; accounting identity holds everywhere");
  const GilbertElliottParams kMildBurst{0.02, 0.25, 0.01, 0.8};
  const GilbertElliottParams kHeavyBurst{0.05, 0.2, 0.02, 0.9};
  Table b({"channel", "crash_pct", "delivered", "lost_crash", "lost_channel",
           "retries_per_send", "accuracy_pct"});
  const std::pair<const char*, std::optional<GilbertElliottParams>>
      channels[] = {{"clean", {}}, {"mild_burst", kMildBurst},
                    {"heavy_burst", kHeavyBurst}};
  // Flatten (channel x crash) into one sweep: point pi = channel pi/2,
  // crash fraction 0% or 10% by parity.
  struct BurstTrial {
    double delivered, lcrash, lchan, rps, acc;
  };
  const auto burst_runs = sweep_trials(
      std::size(channels) * 2, kSeeds,
      [&](std::size_t pi, int, std::uint64_t seed) {
        const auto& burst = channels[pi / 2].second;
        const double crash = (pi % 2) ? 0.10 : 0.0;
        const Scenario s = harbor_scenario(nodes, seed);
        const IsoMapRun run = chaos_run(s, crash, seed, true, burst);
        const auto& counters = run.summary.counters;
        const auto it = counters.find("channel.retries");
        const double sends =
            std::max(1.0, static_cast<double>(run.result.generated_reports));
        return BurstTrial{
            static_cast<double>(run.result.delivered_reports),
            static_cast<double>(run.result.lost_crash_reports),
            static_cast<double>(run.result.lost_channel_reports),
            (it != counters.end() ? it->second : 0.0) / sends,
            mapping_accuracy(run.result.map, s.field,
                             default_query(s.field, 4).isolevels(), 70) *
                100.0};
      });
  for (std::size_t pi = 0; pi < std::size(channels) * 2; ++pi) {
    RunningStats delivered, lcrash, lchan, rps, acc;
    for (const BurstTrial& t : burst_runs[pi]) {
      delivered.add(t.delivered);
      lcrash.add(t.lcrash);
      lchan.add(t.lchan);
      rps.add(t.rps);
      acc.add(t.acc);
    }
    b.row()
        .cell(channels[pi / 2].first)
        .cell((pi % 2) ? 10.0 : 0.0, 0)
        .cell(delivered.mean(), 1)
        .cell(lcrash.mean(), 1)
        .cell(lchan.mean(), 1)
        .cell(rps.mean(), 2)
        .cell(acc.mean(), 1);
  }
  emit_table("ext_chaos_burst", titleb, b);

  const std::string titlec = banner("Chaos (c)", "region blackout + self-healing ablation",
         "self-healing recovers reports routed around the dead region; a "
         "static tree loses every subtree behind it");
  Table c({"config", "delivered", "lost_crash", "repairs", "repair_KB",
           "accuracy_pct"});
  const struct {
    const char* label;
    bool blackout;
    double crash;
    bool heal;
  } configs[] = {
      {"fault_free", false, 0.0, true},
      {"blackout_healed", true, 0.0, true},
      {"blackout_static", true, 0.0, false},
      {"blackout+crash_healed", true, 0.05, true},
      {"blackout+crash_static", true, 0.05, false},
  };
  struct BlackoutTrial {
    double delivered, lcrash, repairs, rkb, acc;
  };
  const auto blackout_runs = sweep_trials(
      std::size(configs), kSeeds,
      [&](std::size_t pi, int, std::uint64_t seed) {
        const auto& cfg = configs[pi];
        const Scenario s = harbor_scenario(nodes, seed);
        IsoMapOptions options = isomap_options(s, 4);
        options.fault.crash_fraction = cfg.crash;
        options.fault.seed = seed * 1013;
        options.fault.self_healing = cfg.heal;
        if (cfg.blackout) {
          options.fault.blackout = true;
          // Off-centre disc (~1/8 of the field side as radius) so the sink
          // survives but a populated region dies mid-run.
          options.fault.blackout_center = {s.config.field_side * 0.7,
                                           s.config.field_side * 0.7};
          options.fault.blackout_radius = s.config.field_side * 0.125;
          options.fault.blackout_time = 0.4;
        }
        const IsoMapRun run = run_isomap(s, options);
        check_identity(run);
        return BlackoutTrial{
            static_cast<double>(run.result.delivered_reports),
            static_cast<double>(run.result.lost_crash_reports),
            static_cast<double>(run.result.route_repairs),
            run.result.repair_traffic_bytes / 1024.0,
            mapping_accuracy(run.result.map, s.field,
                             default_query(s.field, 4).isolevels(), 70) *
                100.0};
      });
  for (std::size_t pi = 0; pi < std::size(configs); ++pi) {
    RunningStats delivered, lcrash, repairs, rkb, acc;
    for (const BlackoutTrial& t : blackout_runs[pi]) {
      delivered.add(t.delivered);
      lcrash.add(t.lcrash);
      repairs.add(t.repairs);
      rkb.add(t.rkb);
      acc.add(t.acc);
    }
    c.row()
        .cell(configs[pi].label)
        .cell(delivered.mean(), 1)
        .cell(lcrash.mean(), 1)
        .cell(repairs.mean(), 1)
        .cell(rkb.mean(), 2)
        .cell(acc.mean(), 1);
  }
  emit_table("ext_chaos_blackout", titlec, c);

  const std::string titled = banner("Chaos (d)", "link impairment (jitter/dup/reorder/corrupt) x bursty x crashes",
         "ARQ absorbs corruption as retransmissions, the receiver "
         "suppresses duplicates, and the accounting identity still holds "
         "with every impairment active at once");
  Table d({"config", "delivered", "lost_channel", "dup_rx", "corrupt_rx",
           "arq_timeouts", "e2e_last(s)", "accuracy_pct"});
  const struct {
    const char* label;
    bool burst;
    double crash;
  } impair_configs[] = {
      {"impair_only", false, 0.0},
      {"impair+burst", true, 0.0},
      {"impair+burst+crash10", true, 0.10},
  };
  struct ImpairTrial {
    double delivered, lchan, dup, corrupt, timeouts, e2e, acc;
  };
  const auto impair_runs = sweep_trials(
      std::size(impair_configs), kSeeds,
      [&](std::size_t pi, int, std::uint64_t seed) {
        const auto& cfg = impair_configs[pi];
        const Scenario s = harbor_scenario(nodes, seed);
        IsoMapOptions options = isomap_options(s, 4);
        options.fault.crash_fraction = cfg.crash;
        options.fault.seed = seed * 1013;
        options.fault.self_healing = true;
        if (cfg.burst) options.link.burst = kHeavyBurst;
        options.link.retries = 3;
        options.link.seed = seed * 977;
        ImpairmentConfig impair;
        impair.latency_s = 0.002;
        impair.jitter_s = 0.004;
        impair.dup_prob = 0.2;
        impair.reorder_prob = 0.15;
        impair.corrupt_prob = 0.08;
        options.link.impair = impair;
        options.link.arq.max_frame_attempts = 5;
        const IsoMapRun run = run_isomap(s, options);
        check_identity(run);
        const auto& counters = run.summary.counters;
        const auto counter = [&](const char* key) {
          const auto it = counters.find(key);
          return it != counters.end() ? it->second : 0.0;
        };
        return ImpairTrial{
            static_cast<double>(run.result.delivered_reports),
            static_cast<double>(run.result.lost_channel_reports),
            counter("channel.dup_rx"),
            counter("channel.corrupt_rx"),
            counter("channel.arq_timeouts"),
            run.result.e2e_last_latency_s,
            mapping_accuracy(run.result.map, s.field,
                             default_query(s.field, 4).isolevels(), 70) *
                100.0};
      });
  for (std::size_t pi = 0; pi < std::size(impair_configs); ++pi) {
    RunningStats delivered, lchan, dup, corrupt, timeouts, e2e, acc;
    for (const ImpairTrial& t : impair_runs[pi]) {
      delivered.add(t.delivered);
      lchan.add(t.lchan);
      dup.add(t.dup);
      corrupt.add(t.corrupt);
      timeouts.add(t.timeouts);
      e2e.add(t.e2e);
      acc.add(t.acc);
    }
    d.row()
        .cell(impair_configs[pi].label)
        .cell(delivered.mean(), 1)
        .cell(lchan.mean(), 1)
        .cell(dup.mean(), 1)
        .cell(corrupt.mean(), 1)
        .cell(timeouts.mean(), 1)
        .cell(e2e.mean(), 4)
        .cell(acc.mean(), 1);
  }
  emit_table("ext_chaos_impair", titled, d);

  // Per-node pass over one representative chaos run (10% crashes + heavy
  // burst, self-healing on) with the flight recorder installed: the
  // loss-accounting identity above is aggregate, this one must hold node
  // by node — every report a source generated is delivered, filtered or
  // lost, per source. The run also yields the chaos energy heatmap
  // artifact: where the repair-and-retry bill actually landed.
  {
    const std::uint64_t seed = trial_seed(1);
    const Scenario s = harbor_scenario(nodes, seed);
    IsoMapOptions options = isomap_options(s, 4);
    options.fault.crash_fraction = 0.10;
    options.fault.seed = seed * 1013;
    options.fault.self_healing = true;
    options.link.burst = kHeavyBurst;
    options.link.retries = 3;
    options.link.seed = seed * 977;
    obs::NodeTelemetry telemetry(s.graph.size());
    const IsoMapRun run = run_isomap(s, options, nullptr, &telemetry);
    check_identity(run);
    int bad_nodes = 0;
    for (int v = 0; v < s.graph.size(); ++v) {
      const long long accounted =
          telemetry.delivered(v) + telemetry.filtered(v) +
          telemetry.lost_channel(v) + telemetry.lost_crash(v);
      if (accounted != telemetry.generated(v)) {
        ++bad_nodes;
        if (bad_nodes <= 5)
          std::cerr << "[ext_chaos] PER-NODE ACCOUNTING VIOLATION: node "
                    << v << " generated=" << telemetry.generated(v)
                    << " accounted=" << accounted << "\n";
      }
    }
    identity_violations += bad_nodes;
    if (bad_nodes == 0)
      std::cout << "[ext_chaos] per-node accounting identity held across "
                << s.graph.size() << " node(s)\n";
    std::vector<Vec2> positions;
    std::vector<double> energy_j;
    std::vector<int> hops;
    for (int v = 0; v < s.graph.size(); ++v) {
      positions.push_back(s.deployment.node(v).reported_pos());
      energy_j.push_back(telemetry.energy_j(v));
      hops.push_back(telemetry.hops(v));
    }
    const std::string csv_path =
        (results_dir() / "ext_chaos_energy_heatmap.csv").string();
    const std::string geo_path =
        (results_dir() / "ext_chaos_energy_heatmap.geojson").string();
    if (save_text(csv_path, heatmap_csv_grid(s.field.bounds(), positions,
                                             energy_j, 32, 32)))
      std::cout << "[bench] wrote " << csv_path << "\n";
    if (save_text(geo_path,
                  heatmap_geojson(positions, energy_j, hops, "energy_j")))
      std::cout << "[bench] wrote " << geo_path << "\n";
  }

  if (identity_violations > 0) {
    std::cerr << "[ext_chaos] " << identity_violations
              << " accounting violation(s)\n";
    return 1;
  }
  std::cout << "[ext_chaos] accounting identity held across all runs\n";
  return 0;
}
