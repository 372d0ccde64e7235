// simulate — the full-featured command-line runner: pick a protocol, a
// field, a deployment and impairments, and get metrics plus optional
// ASCII / PGM / SVG / CSV artifacts. This is the "drive everything from
// one binary" entry point for downstream users.
//
// Usage examples:
//   simulate --protocol=isomap --nodes=2500 --levels=4 --svg=map.svg
//   simulate --protocol=tinydb --grid --failures=0.2
//   simulate --protocol=isomap --field=silted --loss=0.2 --noise=0.1
//   simulate --protocol=isomap --localization=dvhop --anchors=0.05
//   simulate --protocol=agg --csv=run.csv
//
// Options:
//   --protocol=isomap|tinydb|inlr|escan|suppression|agg   (default isomap)
//   --trace=FILE.asc  drive the run from an ESRI ASCII grid survey trace
//   --field=harbor|silted|multibasin|sloped|random        (default harbor)
//   --nodes=N --side=S --levels=K --seed=R
//   --grid            grid deployment (tinydb always uses its own grid)
//   --failures=F      fraction of nodes failed
//   --noise=SD        reading noise (attribute units)
//   --poserr=SD       localization error injected as Gaussian noise
//   --localization=dvhop --anchors=FRAC    emergent DV-Hop positions
//   --loss=P --retries=R                    lossy links with ARQ
//   --sa=DEG --sd=DIST --epsilon=FRAC       Iso-Map filter / border range
//   --regulation=none|rules|blended
//   --ascii --pgm=PATH --svg=PATH --csv=PATH --geojson=PATH

#include <iostream>
#include <memory>

#include "baselines/isoline_agg.hpp"
#include "field/trace_io.hpp"
#include "eval/metrics.hpp"
#include "eval/render.hpp"
#include "eval/geojson.hpp"
#include "eval/svg.hpp"
#include "net/localization.hpp"
#include "sim/runners.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace isomap;

namespace {

FieldKind parse_field(const std::string& name) {
  if (name == "harbor") return FieldKind::kHarbor;
  if (name == "silted") return FieldKind::kSilted;
  if (name == "multibasin") return FieldKind::kMultiBasin;
  if (name == "sloped") return FieldKind::kSloped;
  if (name == "random") return FieldKind::kRandom;
  throw std::invalid_argument("unknown --field: " + name);
}

RegulationMode parse_regulation(const std::string& name) {
  if (name == "none") return RegulationMode::kNone;
  if (name == "rules") return RegulationMode::kRules;
  if (name == "blended") return RegulationMode::kBlended;
  throw std::invalid_argument("unknown --regulation: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string protocol = args.get_or("protocol", "isomap");

  ScenarioConfig config;
  config.num_nodes = args.get_int("nodes", 2500);
  config.field_side = args.get_double("side", 50.0);
  config.seed = args.get_u64("seed", 1);
  config.field = parse_field(args.get_or("field", "harbor"));
  config.grid_deployment = args.has("grid") || protocol == "tinydb" ||
                           protocol == "inlr";
  config.failure_fraction = args.get_double("failures", 0.0);
  config.reading_noise_std = args.get_double("noise", 0.0);
  config.position_error_std = args.get_double("poserr", 0.0);
  const int levels = args.get_int("levels", 4);

  Scenario s = [&] {
    if (const auto trace = args.get("trace")) {
      auto grid = std::make_shared<GridField>(load_ascii_grid(*trace));
      std::cout << "trace: " << *trace << " (" << grid->nx() << "x"
                << grid->ny() << " samples)\n";
      return make_scenario_with_field(config, std::move(grid));
    }
    return make_scenario(config);
  }();
  std::cout << "scenario: " << config.num_nodes << " nodes, "
            << config.field_side << "x" << config.field_side
            << " field, density " << config.density() << ", degree "
            << s.graph.average_degree() << ", tree depth "
            << s.tree.depth() << "\n";

  // Optional emergent localization.
  if (args.get_or("localization", "exact") == "dvhop") {
    Rng loc_rng(config.seed ^ 0xD0C5ULL);
    Ledger loc_ledger(s.deployment.size());
    DvHopOptions dv;
    dv.anchor_fraction = args.get_double("anchors", 0.05);
    const DvHopResult loc =
        dv_hop_localize(s.deployment, s.graph, dv, loc_rng, loc_ledger);
    apply_localization(s.deployment, loc);
    std::cout << "dv-hop: " << loc.anchors.size() << " anchors, mean error "
              << loc.mean_error << " units, flood traffic "
              << loc.flood_traffic_bytes / 1024.0 << " KB\n";
  }

  const ContourQuery base_query = default_query(s.field, levels);
  const auto isolevels = base_query.isolevels();
  const Mica2Model energy;

  Table metrics({"metric", "value"});
  std::function<int(Vec2)> classify;
  std::vector<Polyline> boundaries;

  if (protocol == "isomap") {
    IsoMapOptions options;
    options.query = base_query;
    options.query.angular_separation_deg = args.get_double("sa", 30.0);
    options.query.distance_separation = args.get_double("sd", 4.0);
    options.query.epsilon_fraction = args.get_double("epsilon", 0.05);
    options.regulation = parse_regulation(args.get_or("regulation", "rules"));
    options.link.loss = args.get_double("loss", 0.0);
    options.link.retries = args.get_int("retries", 3);
    const IsoMapRun run = run_isomap(s, options);
    metrics.row().cell("isoline nodes").cell(run.result.isoline_node_count);
    metrics.row().cell("reports generated").cell(run.result.generated_reports);
    metrics.row().cell("reports at sink").cell(run.result.delivered_reports);
    metrics.row().cell("report traffic KB").cell(
        run.result.report_traffic_bytes / 1024.0, 2);
    metrics.row().cell("collection latency s").cell(
        run.result.latency_s(), 3);
    metrics.row().cell("mean node energy uJ").cell(
        energy.mean_node_energy_j(run.ledger) * 1e6, 2);
    metrics.row().cell("accuracy %").cell(
        mapping_accuracy(run.result.map, s.field, isolevels, 90) * 100.0, 2);
    metrics.row().cell("mean IoU").cell(
        mean_region_iou(run.result.map, s.field, isolevels, 90), 3);
    const double h = isoline_hausdorff(run.result.map, s.field, isolevels);
    metrics.row().cell("hausdorff (norm)").cell(
        std::isfinite(h) ? h / config.field_side : -1.0, 4);
    // Keep a copy of the map for the renders.
    auto map = std::make_shared<ContourMap>(run.result.map);
    classify = [map](Vec2 p) { return map->level_index(p); };
    for (int k = 0; k < map->level_count(); ++k)
      for (const auto& chain : map->isolines(k)) boundaries.push_back(chain);
    if (const auto geojson = args.get("geojson")) {
      GeoJsonWriter writer;
      writer.add_contour_map(*map);
      writer.add_reports(run.result.sink_reports);
      if (writer.save(*geojson))
        std::cout << "geojson: " << *geojson << " (" << writer.feature_count()
                  << " features)\n";
    }
  } else if (protocol == "tinydb") {
    TinyDBOptions options;
    options.link.loss = args.get_double("loss", 0.0);
    options.link.retries = args.get_int("retries", 3);
    const TinyDBRun run = run_tinydb(s, options);
    metrics.row().cell("reports delivered").cell(run.result.reports_delivered);
    metrics.row().cell("traffic KB").cell(run.result.traffic_bytes / 1024.0,
                                          2);
    metrics.row().cell("collection latency s").cell(run.result.latency_s(),
                                                    3);
    metrics.row().cell("mean node energy uJ").cell(
        energy.mean_node_energy_j(run.ledger) * 1e6, 2);
    auto result = std::make_shared<TinyDBResult>(run.result);
    const LevelMap truth =
        LevelMap::ground_truth(s.field, isolevels, 90, 90);
    const LevelMap est = LevelMap::rasterize(
        s.field.bounds(), 90, 90,
        [&](Vec2 p) { return result->level_index(p, isolevels); });
    metrics.row().cell("accuracy %").cell(est.accuracy_against(truth) * 100.0,
                                          2);
    classify = [result, isolevels](Vec2 p) {
      return result->level_index(p, isolevels);
    };
  } else if (protocol == "agg") {
    IsolineAggOptions options;
    options.query = base_query;
    options.distance_separation = args.get_double("sd", 4.0);
    IsolineAggProtocol agg(options);
    Ledger ledger(s.deployment.size());
    const IsolineAggResult result =
        agg.run(s.readings, s.deployment, s.graph, s.tree, ledger);
    auto map = std::make_shared<IsolineAggMap>(
        agg.build_map(result, s.field.bounds()));
    metrics.row().cell("reports at sink").cell(result.delivered_reports);
    metrics.row().cell("traffic KB").cell(result.traffic_bytes / 1024.0, 2);
    const LevelMap truth =
        LevelMap::ground_truth(s.field, isolevels, 90, 90);
    const LevelMap est =
        LevelMap::rasterize(s.field.bounds(), 90, 90,
                            [&](Vec2 p) { return map->level_index(p); });
    metrics.row().cell("accuracy %").cell(est.accuracy_against(truth) * 100.0,
                                          2);
    classify = [map](Vec2 p) { return map->level_index(p); };
    for (int k = 0; k < map->level_count(); ++k)
      for (const auto& chain : map->chains(k)) boundaries.push_back(chain);
  } else if (protocol == "inlr") {
    const InlrRun run = run_inlr(s);
    metrics.row().cell("reports generated").cell(
        run.result.reports_generated);
    metrics.row().cell("regions at sink").cell(run.result.regions_at_sink);
    metrics.row().cell("traffic KB").cell(run.result.traffic_bytes / 1024.0,
                                          2);
    metrics.row().cell("mean node ops").cell(run.ledger.mean_ops(), 1);
    metrics.row().cell("mean node energy uJ").cell(
        energy.mean_node_energy_j(run.ledger) * 1e6, 2);
    auto result = std::make_shared<InlrResult>(run.result);
    const LevelMap truth = LevelMap::ground_truth(s.field, isolevels, 90, 90);
    const LevelMap est = LevelMap::rasterize(
        s.field.bounds(), 90, 90,
        [&](Vec2 p) { return result->level_index(p, isolevels); });
    metrics.row().cell("accuracy %").cell(est.accuracy_against(truth) * 100.0,
                                          2);
    classify = [result, isolevels](Vec2 p) {
      return result->level_index(p, isolevels);
    };
  } else if (protocol == "escan") {
    const EScanRun run = run_escan(s);
    metrics.row().cell("tuples at sink").cell(run.result.tuples_at_sink);
    metrics.row().cell("traffic KB").cell(run.result.traffic_bytes / 1024.0,
                                          2);
    metrics.row().cell("mean node ops").cell(run.ledger.mean_ops(), 1);
    auto result = std::make_shared<EScanResult>(run.result);
    const LevelMap truth = LevelMap::ground_truth(s.field, isolevels, 90, 90);
    const LevelMap est = LevelMap::rasterize(
        s.field.bounds(), 90, 90,
        [&](Vec2 p) { return result->level_index(p, isolevels); });
    metrics.row().cell("accuracy %").cell(est.accuracy_against(truth) * 100.0,
                                          2);
    classify = [result, isolevels](Vec2 p) {
      return result->level_index(p, isolevels);
    };
  } else if (protocol == "suppression") {
    const SuppressionRun run = run_suppression(s);
    metrics.row().cell("reports sent").cell(run.result.reports_generated);
    metrics.row().cell("reports suppressed").cell(
        run.result.reports_suppressed);
    metrics.row().cell("traffic KB").cell(run.result.traffic_bytes / 1024.0,
                                          2);
  } else {
    std::cerr << "unknown --protocol: " << protocol << "\n";
    return 1;
  }

  metrics.print(std::cout);

  if (const auto csv = args.get("csv")) {
    if (metrics.save_csv(*csv)) std::cout << "metrics csv: " << *csv << "\n";
  }
  if (classify) {
    if (args.has("ascii")) {
      const LevelMap map = LevelMap::rasterize(s.field.bounds(), 44, 44,
                                               classify);
      std::cout << "\n" << ascii_render(map);
    }
    if (const auto pgm = args.get("pgm")) {
      const LevelMap map = LevelMap::rasterize(s.field.bounds(), 256, 256,
                                               classify);
      if (write_pgm(map, *pgm)) std::cout << "pgm: " << *pgm << "\n";
    }
    if (const auto svg = args.get("svg")) {
      SvgWriter writer(s.field.bounds());
      writer.add_level_raster(classify,
                              static_cast<int>(isolevels.size()));
      writer.add_polylines(boundaries, "rgb(180,30,30)", 1.2);
      // True isolines for reference, faint.
      for (double lambda : isolevels)
        writer.add_polylines(true_isolines(s.field, lambda, 150),
                             "rgba(0,0,0,0.35)", 0.8);
      writer.add_marker(s.deployment.node(s.tree.sink()).pos, "sink",
                        "rgb(20,20,20)");
      if (writer.save(*svg)) std::cout << "svg: " << *svg << "\n";
    }
  }
  return 0;
}
