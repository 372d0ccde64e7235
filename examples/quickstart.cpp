// Quickstart: run Iso-Map end to end on the default harbor scenario and
// print the reconstructed isobath contour map next to the ground truth.
//
// Usage: quickstart [--nodes=2500] [--side=50] [--levels=4] [--seed=1]
//                   [--threads=N] [--crash=0.1] [--burst] [--no-heal]
//                   [--jitter=0.005] [--dup=0.1] [--reorder=0.1]
//                   [--arq-window=4]
//                   [--trace=<run.jsonl>] [--summary=<summary.json>]
//
// --threads sizes the exec thread pool used for sink-side map generation
// (default: ISOMAP_THREADS, else hardware). The result is bitwise
// identical at any thread count — see docs/PERFORMANCE.md.
//
// --trace streams every ledger charge, phase timing, selection and filter
// drop as one JSON object per line (inspect with tools/trace_summary).
// --summary writes the run's obs::RunSummary (per-phase timing histograms,
// counters, ledger totals) as a single JSON document.
// --crash kills that fraction of nodes mid-convergecast (self-healing
// routing repairs the tree unless --no-heal); --burst switches the link
// to a Gilbert-Elliott bursty-loss channel. Any of --jitter (seconds),
// --dup, --reorder (probabilities) or --arq-window engages the
// link-impairment pipeline with sliding-window ARQ, and the run then
// reports measured end-to-end map latency. See docs/ROBUSTNESS.md.

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "eval/metrics.hpp"
#include "eval/render.hpp"
#include "exec/exec.hpp"
#include "obs/trace.hpp"
#include "sim/runners.hpp"
#include "util/cli.hpp"

using namespace isomap;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  ScenarioConfig config;
  config.num_nodes = args.get_int("nodes", 2500);
  config.field_side = args.get_double("side", 50.0);
  config.seed = args.get_u64("seed", 1);
  const int levels = args.get_int("levels", 4);
  if (const int threads = args.get_int("threads", 0); threads > 0)
    exec::set_thread_count(threads);

  std::cout << "Deploying " << config.num_nodes << " sensor nodes over a "
            << config.field_side << " x " << config.field_side
            << " field (density " << config.density() << ", radio range "
            << config.effective_radio_range() << ", "
            << exec::thread_count() << " thread(s))...\n";

  const Scenario scenario = make_scenario(config);
  std::cout << "Average node degree: " << scenario.graph.average_degree()
            << ", routing-tree depth: " << scenario.tree.depth() << " hops\n";

  std::unique_ptr<obs::TraceSink> trace;
  if (const auto trace_path = args.get("trace")) {
    trace = std::make_unique<obs::TraceSink>(*trace_path);
    if (!trace->ok()) {
      std::cerr << "quickstart: cannot write trace to " << *trace_path
                << "\n";
      return 1;
    }
  }

  IsoMapOptions options = isomap_options(scenario, levels);
  options.fault.crash_fraction = args.get_double("crash", 0.0);
  options.fault.self_healing = !args.has("no-heal");
  if (args.has("burst")) {
    options.link.burst = GilbertElliottParams{};  // Mild default bursts.
    options.link.seed = config.seed * 977;
  }
  if (args.has("jitter") || args.has("dup") || args.has("reorder") ||
      args.has("arq-window")) {
    ImpairmentConfig impair;
    impair.latency_s = 0.002;
    impair.jitter_s = args.get_double("jitter", 0.0);
    impair.dup_prob = args.get_double("dup", 0.0);
    impair.reorder_prob = args.get_double("reorder", 0.0);
    options.link.impair = impair;
    options.link.arq.window = args.get_int("arq-window", 4);
    options.link.validate();
  }
  const IsoMapRun run = run_isomap(scenario, options, trace.get());
  const ContourQuery query = default_query(scenario.field, levels);

  if (trace) {
    trace->flush();
    std::cout << "Trace events written:   " << trace->events() << " (to "
              << *args.get("trace") << ")\n";
  }
  if (const auto summary_path = args.get("summary")) {
    std::ofstream out(*summary_path);
    if (!out) {
      std::cerr << "quickstart: cannot write summary to " << *summary_path
                << "\n";
      return 1;
    }
    out << run.summary.to_json().dump(2) << "\n";
    std::cout << "Run summary written:    " << *summary_path << "\n";
  }

  std::cout << "Isoline nodes selected: " << run.result.isoline_node_count
            << "\nReports generated:      " << run.result.generated_reports
            << "\nReports at sink:        " << run.result.delivered_reports
            << " (after in-network filtering)"
            << "\nReport traffic:         "
            << run.result.report_traffic_bytes / 1024.0 << " KB\n";
  if (run.result.crashed_nodes > 0 || run.result.lost_channel_reports > 0) {
    std::cout << "Nodes crashed mid-run:  " << run.result.crashed_nodes
              << "\nReports lost (crash):   " << run.result.lost_crash_reports
              << "\nReports lost (channel): "
              << run.result.lost_channel_reports
              << "\nTree repairs:           " << run.result.route_repairs
              << " (" << run.result.repair_traffic_bytes / 1024.0
              << " KB of beacons)\n";
  }
  if (options.link.impair) {
    std::cout << "E2E map latency:        first "
              << run.result.e2e_first_latency_s * 1000.0 << " ms, mean "
              << run.result.e2e_mean_latency_s * 1000.0 << " ms, last "
              << run.result.e2e_last_latency_s * 1000.0 << " ms (measured "
              << "over the impaired ARQ link)\n";
  }

  const double accuracy = mapping_accuracy(run.result.map, scenario.field,
                                           query.isolevels(), 100);
  std::cout << "Mapping accuracy:       " << accuracy * 100.0 << " %\n";

  const Mica2Model energy;
  std::cout << "Mean per-node energy:   "
            << energy.mean_node_energy_j(run.ledger) * 1000.0 << " mJ\n\n";

  const int res = 48;
  const LevelMap truth =
      LevelMap::ground_truth(scenario.field, query.isolevels(), res, res);
  const LevelMap estimate =
      LevelMap::rasterize(scenario.field.bounds(), res, res,
                          [&](Vec2 p) { return run.result.map.level_index(p); });
  std::cout << ascii_render_pair(truth, estimate, "ground truth",
                                 "Iso-Map reconstruction");
  return 0;
}
