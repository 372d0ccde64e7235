// Hot-path micro-benchmark: before/after numbers for the two sink/protocol
// kernels this repo optimised — Voronoi construction (per-cell full sort
// vs ring-expanding enumeration over the spatial index) and the k-hop BFS
// (fresh O(n) buffers per call vs the epoch-stamped scratch). Each pair is
// identity-checked before timing, so a speedup can never come from a
// behaviour change.
// Later rows follow the same pattern for the other kernels, down to the
// field sensing pass (per-call bump rotation vs the precomputed table)
// and the report convergecast (full post-order walk vs level frontier),
// and its in-network filter (per-merge bucket rebuild vs the filter index
// kept with each inbox).
// Expectation: indexed Voronoi >= 5x at n = 10000; scratch BFS ahead of
// the allocating baseline at every density; field sensing ~3x; the
// frontier ahead of the walk, more so at the larger n; the filter index
// ahead of the bucket walk.

#include <bit>
#include <chrono>
#include <cstdint>

#include "bench/bench_common.hpp"
#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "geometry/marching_squares.hpp"
#include "geometry/voronoi.hpp"
#include "isomap/convergecast.hpp"
#include "isomap/node_selection.hpp"
#include "isomap/regression.hpp"
#include "net/ledger.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "oracles/convergecast_post_order.hpp"
#include "oracles/filter_bucket_walk.hpp"
#include "oracles/gaussian_field_reference.hpp"
#include "oracles/k_hop_bfs.hpp"
#include "oracles/marching_squares_reference.hpp"
#include "oracles/regression_aos.hpp"
#include "oracles/selection_full_scan.hpp"
#include "oracles/voronoi_brute_force.hpp"

using namespace isomap;
using namespace isomap::bench;

namespace {

std::vector<Vec2> random_sites(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> sites;
  sites.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    sites.push_back({rng.uniform(0, 50), rng.uniform(0, 50)});
  return sites;
}

/// Best-of-`reps` wall time of `fn`, in milliseconds.
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    best = std::min(best, ms);
  }
  return best;
}

/// One round's reports over the static tree: one per Definition 3.1
/// selection entry at a reachable node, carrying the field's descent
/// direction, with ids 0..k-1.
std::vector<IsolineReport> round_reports(const Scenario& s,
                                         const ContourQuery& query) {
  std::vector<IsolineReport> reports;
  for (const SelectionEntry& e :
       select_isoline_nodes(s.graph, s.readings, query)) {
    const Vec2 pos = s.deployment.node(e.node).reported_pos();
    IsolineReport r{e.isolevel, pos, -s.field.gradient(pos), e.node};
    r.id = static_cast<long long>(reports.size());
    if (s.tree.reachable(e.node)) reports.push_back(r);
  }
  return reports;
}

/// Every alive node's regression samples — its own reading first, then
/// its neighbours ascending, the protocol's order — as parallel
/// coordinate/value arrays, one entry per node.
struct Neighbourhoods {
  std::vector<std::vector<double>> xs, ys, vs;
  std::size_t size() const { return xs.size(); }
};

Neighbourhoods gather_neighbourhoods(const Scenario& s) {
  Neighbourhoods out;
  for (int i = 0; i < s.graph.size(); ++i) {
    if (!s.graph.alive(i)) continue;
    std::vector<double> xs, ys, vs;
    const auto push = [&](int v) {
      const Vec2 p = s.deployment.node(v).reported_pos();
      xs.push_back(p.x);
      ys.push_back(p.y);
      vs.push_back(s.readings[static_cast<std::size_t>(v)]);
    };
    push(i);
    for (int nb : s.graph.neighbour_span(i)) push(nb);
    out.xs.push_back(std::move(xs));
    out.ys.push_back(std::move(ys));
    out.vs.push_back(std::move(vs));
  }
  return out;
}

/// Bitwise equality of two fit outcomes (both absent, or equal
/// coefficients).
bool same_fit(const std::optional<PlaneFit>& a,
              const std::optional<PlaneFit>& b) {
  return a.has_value() == b.has_value() &&
         (!a || (a->c0 == b->c0 && a->c1 == b->c1 && a->c2 == b->c2));
}

void require_identical_cells(const VoronoiDiagram& a,
                             const std::vector<VoronoiCell>& b) {
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i)
    same = a.cell(i).vertices == b[i].vertices &&
           a.cell(i).edge_tags == b[i].edge_tags;
  if (!same) {
    std::cerr << "[micro_hotpaths] indexed/brute cell mismatch\n";
    std::exit(1);
  }
}

}  // namespace

int main() {
  const std::string title =
      banner("Micro", "hot-path kernels, baseline vs optimised",
             "indexed Voronoi >= 5x at n = 10000; scratch BFS beats "
             "per-call allocation at every size; field sensing ~3x; "
             "convergecast frontier ahead of the post-order walk");

  Table table({"kernel", "n", "baseline_ms", "optimized_ms", "speedup"});

  for (const int n : {400, 2500, 10000}) {
    const auto sites = random_sites(n, kBenchSeed);
    // Identity first: the optimised construction must reproduce the
    // oracle bit for bit.
    require_identical_cells(
        VoronoiDiagram(sites, 0, 0, 50, 50),
        oracle::voronoi_cells_brute_force(sites, 0, 0, 50, 50));
    const int brute_reps = n >= 10000 ? 1 : (n >= 2500 ? 2 : 5);
    const int indexed_reps = n >= 10000 ? 3 : 10;
    const double brute_ms = best_ms(brute_reps, [&] {
      const auto cells = oracle::voronoi_cells_brute_force(sites, 0, 0, 50, 50);
      if (cells.size() != sites.size()) std::exit(1);
    });
    const double indexed_ms = best_ms(indexed_reps, [&] {
      VoronoiDiagram vd(sites, 0, 0, 50, 50);
      if (vd.size() != sites.size()) std::exit(1);
    });
    table.row()
        .cell("voronoi")
        .cell(n)
        .cell(brute_ms, 2)
        .cell(indexed_ms, 2)
        .cell(brute_ms / indexed_ms, 1);
  }

  for (const int n : {400, 2500, 10000}) {
    const Scenario s = harbor_scenario(n, kBenchSeed);
    const CommGraph& graph = s.graph;
    // Identity: scratch BFS must return exactly the baseline's output.
    for (int i = 0; i < graph.size(); i += 37) {
      if (graph.k_hop_neighbours_with_distance(i, 2) !=
          oracle::k_hop_bfs(graph, i, 2)) {
        std::cerr << "[micro_hotpaths] k_hop mismatch at node " << i << "\n";
        return 1;
      }
    }
    volatile std::size_t sink = 0;
    const double baseline_ms = best_ms(3, [&] {
      std::size_t total = 0;
      for (int i = 0; i < graph.size(); ++i)
        total += oracle::k_hop_bfs(graph, i, 2).size();
      sink = total;
    });
    const double scratch_ms = best_ms(3, [&] {
      std::size_t total = 0;
      for (int i = 0; i < graph.size(); ++i)
        total += graph.k_hop_neighbours_with_distance(i, 2).size();
      sink = total;
    });
    table.row()
        .cell("k_hop_2")
        .cell(n)
        .cell(baseline_ms, 2)
        .cell(scratch_ms, 2)
        .cell(baseline_ms / scratch_ms, 1);
  }

  // Definition 3.1 selection: full per-level scan (the pre-banded kernel)
  // vs the binary-searched candidate window shared with the continuous
  // engine. Identity-checked on admissions, candidates and modelled ops.
  for (const int n : {400, 2500, 10000}) {
    const Scenario s = harbor_scenario(n, kBenchSeed);
    ContourQuery query = default_query(s.field, 4);
    query.granularity /= 8.0;  // Many levels: where the scan cost lives.
    const auto levels = query.isolevels();
    const double eps = query.epsilon();
    std::vector<int> banded, reference;
    for (int i = 0; i < s.graph.size(); ++i) {
      if (!s.graph.alive(i)) continue;
      const NodeSelectionResult got = evaluate_node_selection(
          s.graph, s.readings, i, levels, eps, banded);
      const NodeSelectionResult want = oracle::selection_full_scan(
          s.graph, s.readings, i, levels, eps, reference);
      if (banded != reference || got.candidates != want.candidates ||
          got.ops != want.ops) {
        std::cerr << "[micro_hotpaths] selection mismatch at node " << i
                  << "\n";
        return 1;
      }
    }
    volatile double sink = 0.0;
    const double full_ms = best_ms(5, [&] {
      double total = 0.0;
      for (int i = 0; i < s.graph.size(); ++i) {
        if (!s.graph.alive(i)) continue;
        total += oracle::selection_full_scan(s.graph, s.readings, i, levels,
                                             eps, reference)
                     .ops;
      }
      sink = total;
    });
    const double banded_ms = best_ms(5, [&] {
      double total = 0.0;
      for (int i = 0; i < s.graph.size(); ++i) {
        if (!s.graph.alive(i)) continue;
        total +=
            evaluate_node_selection(s.graph, s.readings, i, levels, eps,
                                    banded)
                .ops;
      }
      sink = total;
    });
    table.row()
        .cell("select_def31")
        .cell(n)
        .cell(full_ms, 2)
        .cell(banded_ms, 2)
        .cell(full_ms / banded_ms, 1);
  }

  // Regression refresh: full fit_plane_soa per round vs the continuous
  // engine's split — position sufficient statistics computed once, only
  // the value block and the 3x3 solve redone when readings change.
  // Identity-checked bit for bit on the fitted plane.
  for (const int n : {400, 2500, 10000}) {
    const Neighbourhoods nh =
        gather_neighbourhoods(harbor_scenario(n, kBenchSeed));
    std::vector<PlanePositionStats> pos_stats;
    pos_stats.reserve(nh.size());
    for (std::size_t i = 0; i < nh.size(); ++i)
      pos_stats.push_back(plane_position_stats(nh.xs[i], nh.ys[i]));
    const auto refresh = [&](std::size_t i) {
      return solve_plane(pos_stats[i], plane_value_stats(nh.xs[i], nh.ys[i],
                                                         nh.vs[i],
                                                         pos_stats[i]));
    };
    for (std::size_t i = 0; i < nh.size(); ++i) {
      if (!same_fit(fit_plane_soa(nh.xs[i], nh.ys[i], nh.vs[i]),
                    refresh(i))) {
        std::cerr << "[micro_hotpaths] regression split mismatch\n";
        return 1;
      }
    }
    volatile double sink = 0.0;
    const double full_ms = best_ms(5, [&] {
      double total = 0.0;
      for (std::size_t i = 0; i < nh.size(); ++i)
        if (const auto fit = fit_plane_soa(nh.xs[i], nh.ys[i], nh.vs[i]))
          total += fit->c1;
      sink = total;
    });
    const double split_ms = best_ms(5, [&] {
      double total = 0.0;
      for (std::size_t i = 0; i < nh.size(); ++i)
        if (const auto fit = refresh(i)) total += fit->c1;
      sink = total;
    });
    table.row()
        .cell("fit_refresh")
        .cell(n)
        .cell(full_ms, 2)
        .cell(split_ms, 2)
        .cell(full_ms / split_ms, 1);
  }

  // SoA regression: the AoS oracle fit_plane walks FieldSample structs
  // (24-byte stride per coordinate); the production fit_plane_soa
  // streams flat coordinate and value arrays. Each of the independent
  // accumulator chains adds the same addends in the same order, so the
  // fitted plane is bit-identical — checked on every neighbourhood before
  // timing.
  for (const int n : {400, 2500, 10000}) {
    const Neighbourhoods nh =
        gather_neighbourhoods(harbor_scenario(n, kBenchSeed));
    std::vector<std::vector<oracle::FieldSample>> aos(nh.size());
    for (std::size_t i = 0; i < nh.size(); ++i)
      for (std::size_t k = 0; k < nh.xs[i].size(); ++k)
        aos[i].push_back({{nh.xs[i][k], nh.ys[i][k]}, nh.vs[i][k]});
    for (std::size_t i = 0; i < aos.size(); ++i) {
      if (!same_fit(oracle::fit_plane(aos[i]),
                    fit_plane_soa(nh.xs[i], nh.ys[i], nh.vs[i]))) {
        std::cerr << "[micro_hotpaths] AoS/SoA fit mismatch\n";
        return 1;
      }
    }
    volatile double sink = 0.0;
    const double aos_ms = best_ms(5, [&] {
      double total = 0.0;
      for (const auto& samples : aos)
        if (const auto fit = oracle::fit_plane(samples)) total += fit->c1;
      sink = total;
    });
    const double soa_ms = best_ms(5, [&] {
      double total = 0.0;
      for (std::size_t i = 0; i < nh.size(); ++i)
        if (const auto fit = fit_plane_soa(nh.xs[i], nh.ys[i], nh.vs[i]))
          total += fit->c1;
      sink = total;
    });
    table.row()
        .cell("fit_soa")
        .cell(n)
        .cell(aos_ms, 2)
        .cell(soa_ms, 2)
        .cell(aos_ms / soa_ms, 1);
  }

  // Batch point-in-region: the scalar level_index walk (retained oracle,
  // one region-stack descent per point) vs the level_index_batch sieve,
  // which walks the stack level-major so each region's data stays hot
  // across the points it tests. The map is harbor_dense's (40 000 nodes,
  // 32 levels, its filter thresholds): the sieve pays on a deep stack.
  // Identity over every grid point first — the batch path must
  // reproduce the scalar classification exactly.
  {
    const Scenario s = harbor_scenario(40000, kBenchSeed);
    IsoMapOptions options = isomap_options(s, 32);
    options.query.distance_separation = 1.0;
    options.query.angular_separation_deg = 10.0;
    const ContourMap map = run_isomap(s, options).result.map;
    const FieldBounds fb = s.field.bounds();
    for (const int res : {64, 128, 256}) {
      std::vector<Vec2> pts;
      pts.reserve(static_cast<std::size_t>(res) * res);
      for (int iy = 0; iy < res; ++iy)
        for (int ix = 0; ix < res; ++ix)
          pts.push_back({fb.x0 + fb.width() * (ix + 0.5) / res,
                         fb.y0 + fb.height() * (iy + 0.5) / res});
      std::vector<int> batch(pts.size());
      map.level_index_batch(pts, batch);
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (batch[i] != map.level_index(pts[i])) {
          std::cerr << "[micro_hotpaths] point_in_region_batch mismatch at "
                    << i << "\n";
          return 1;
        }
      }
      volatile long long sink = 0;
      const double scalar_ms = best_ms(3, [&] {
        long long total = 0;
        for (const Vec2 p : pts) total += map.level_index(p);
        sink = total;
      });
      const double batch_ms = best_ms(3, [&] {
        map.level_index_batch(pts, batch);
        long long total = 0;
        for (const int lvl : batch) total += lvl;
        sink = total;
      });
      table.row()
          .cell("point_in_region_batch")
          .cell(res)
          .cell(scalar_ms, 2)
          .cell(batch_ms, 2)
          .cell(scalar_ms / batch_ms, 1);
    }
  }

  // Marching squares: per-cell corner re-evaluation + eager edge
  // interpolation (reference) vs the two-row value cache with lazy
  // crossings and per-row threshold bytes. Identity-checked on the full
  // polyline set per isolevel.
  {
    const Scenario s = harbor_scenario(2500, kBenchSeed);
    const FieldBounds fb = s.field.bounds();
    for (const int res : {128, 256, 512}) {
      SampleGrid grid;
      grid.nx = res;
      grid.ny = res;
      grid.origin = {fb.x0, fb.y0};
      grid.dx = fb.width() / static_cast<double>(res - 1);
      grid.dy = fb.height() / static_cast<double>(res - 1);
      grid.value = [&](int ix, int iy) {
        return s.field.value(grid.world(ix, iy));
      };
      const std::vector<double> levels = {4.0, 8.0, 12.0, 16.0};
      for (const double level : levels) {
        const auto got = marching_squares(grid, level);
        const auto want = oracle::marching_squares_reference(grid, level);
        bool same = got.size() == want.size();
        for (std::size_t c = 0; same && c < got.size(); ++c)
          same = got[c].points() == want[c].points() &&
                 got[c].closed() == want[c].closed();
        if (!same) {
          std::cerr << "[micro_hotpaths] marching-squares mismatch at level "
                    << level << "\n";
          return 1;
        }
      }
      volatile std::size_t sink = 0;
      const double reference_ms = best_ms(3, [&] {
        std::size_t total = 0;
        for (const double level : levels)
          total += oracle::marching_squares_reference(grid, level).size();
        sink = total;
      });
      const double cached_ms = best_ms(3, [&] {
        std::size_t total = 0;
        for (const double level : levels)
          total += marching_squares(grid, level).size();
        sink = total;
      });
      table.row()
          .cell("marching_sq")
          .cell(res)
          .cell(reference_ms, 2)
          .cell(cached_ms, 2)
          .cell(reference_ms / cached_ms, 1);
    }
  }

  // Flight-recorder charge path: the per-node telemetry table rides the
  // Ledger's charge hooks, so the Ledger transmit/compute loop is the
  // subsystem's hot path. With no obs context installed (every exec
  // worker, every pre-telemetry caller) a charge pays one thread-local
  // read plus a branch — the "near-zero when disabled" contract — and
  // with a NodeTelemetry installed it adds a handful of O(1) array
  // writes. Here baseline = telemetry enabled and optimized = disabled,
  // so the speedup column reads as the overhead factor the disabled path
  // avoids. Identity first: an instrumented pass must post bit-identical
  // per-node sums to the ledger's own arrays.
  for (const int n : {400, 2500, 10000}) {
    {
      Ledger ledger(n);
      obs::NodeTelemetry telemetry(n);
      obs::ObsScope scope(nullptr, nullptr, &telemetry);
      for (int v = 0; v < n; ++v) {
        ledger.transmit(v, (v + 1) % n, 36.0);
        ledger.compute(v, 8.0);
      }
      for (int v = 0; v < n; ++v) {
        if (telemetry.tx_bytes(v) != ledger.tx_bytes(v) ||
            telemetry.rx_bytes(v) != ledger.rx_bytes(v) ||
            telemetry.ops(v) != ledger.ops(v)) {
          std::cerr << "[micro_hotpaths] telemetry/ledger mismatch at node "
                    << v << "\n";
          return 1;
        }
      }
    }
    const int passes = std::max(1, 1000000 / n);
    Ledger enabled_ledger(n);
    obs::NodeTelemetry telemetry(n);
    const double enabled_ms = best_ms(3, [&] {
      obs::ObsScope scope(nullptr, nullptr, &telemetry);
      for (int pass = 0; pass < passes; ++pass)
        for (int v = 0; v < n; ++v) {
          enabled_ledger.transmit(v, (v + 1) % n, 36.0);
          enabled_ledger.compute(v, 8.0);
        }
    });
    Ledger disabled_ledger(n);
    const double disabled_ms = best_ms(3, [&] {
      for (int pass = 0; pass < passes; ++pass)
        for (int v = 0; v < n; ++v) {
          disabled_ledger.transmit(v, (v + 1) % n, 36.0);
          disabled_ledger.compute(v, 8.0);
        }
    });
    table.row()
        .cell("ledger_telemetry")
        .cell(n)
        .cell(enabled_ms, 2)
        .cell(disabled_ms, 2)
        .cell(enabled_ms / disabled_ms, 1);
  }

  // Field sensing: one harbor_drift-sized sense pass — 40,000 node
  // positions on the 200x200 harbor blended halfway toward the silted
  // seabed, 32 bumps per reading. The oracle recomputes each bump's cos
  // and sin on every call; GaussianField reads them from the table it
  // built at construction. Identity-checked bit for bit on every reading
  // before timing.
  {
    const FieldBounds fb{0.0, 0.0, 200.0, 200.0};
    const GaussianField harbor = harbor_bathymetry(fb);
    const GaussianField silted = silted_harbor_bathymetry(fb);
    const double alpha = 0.5;
    const BlendedField blend(harbor, silted, alpha);
    const int n = 40000;
    Rng rng(kBenchSeed);
    std::vector<Vec2> pts(static_cast<std::size_t>(n));
    for (Vec2& p : pts)
      p = {rng.uniform(fb.x0, fb.x1), rng.uniform(fb.y0, fb.y1)};
    std::vector<double> readings(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double want =
          oracle::blended_field_value(harbor, silted, alpha, pts[i]);
      if (std::bit_cast<std::uint64_t>(blend.value(pts[i])) !=
          std::bit_cast<std::uint64_t>(want)) {
        std::cerr << "[micro_hotpaths] field_sample mismatch at " << i
                  << "\n";
        return 1;
      }
    }
    volatile double sink = 0.0;
    const double reference_ms = best_ms(5, [&] {
      for (std::size_t i = 0; i < pts.size(); ++i)
        readings[i] =
            oracle::blended_field_value(harbor, silted, alpha, pts[i]);
      sink = readings.back();
    });
    const double table_ms = best_ms(5, [&] {
      for (std::size_t i = 0; i < pts.size(); ++i)
        readings[i] = blend.value(pts[i]);
      sink = readings.back();
    });
    table.row()
        .cell("field_sample")
        .cell(n)
        .cell(reference_ms, 2)
        .cell(table_ms, 2)
        .cell(reference_ms / table_ms, 1);
  }

  // Report convergecast: one filtered round's reports — one per
  // Definition 3.1 selection entry, carrying the field's descent
  // direction — routed over the static tree. The oracle walks all of
  // post_order() over one buffer per node; the production convergecast
  // visits only the nodes on report paths. Identity-checked on the sink
  // reports, the counters and every node's ledger before timing.
  for (const int n : {40000, 250000}) {
    const Scenario s = harbor_scenario(n, kBenchSeed);
    const ContourQuery query = default_query(s.field, 8);
    const std::vector<IsolineReport> reports = round_reports(s, query);
    const InNetworkFilter filter = InNetworkFilter::from_query(query);
    const ConvergecastOptions options{.filter = &filter};
    Channel channel;
    Ledger want_ledger(n), got_ledger(n);
    const ConvergecastResult want = oracle::convergecast_post_order(
        reports, s.tree, channel, want_ledger, options);
    const ConvergecastResult got =
        convergecast(reports, s.tree, channel, got_ledger, options);
    bool same = got.sink_reports.size() == want.sink_reports.size() &&
                got.filtered == want.filtered &&
                std::bit_cast<std::uint64_t>(got.report_bytes) ==
                    std::bit_cast<std::uint64_t>(want.report_bytes) &&
                std::bit_cast<std::uint64_t>(got.bottleneck_bytes) ==
                    std::bit_cast<std::uint64_t>(want.bottleneck_bytes);
    for (std::size_t i = 0; same && i < got.sink_reports.size(); ++i)
      same = got.sink_reports[i].id == want.sink_reports[i].id &&
             got.sink_reports[i].hops == want.sink_reports[i].hops;
    for (int v = 0; same && v < n; ++v)
      same = got_ledger.tx_bytes(v) == want_ledger.tx_bytes(v) &&
             got_ledger.rx_bytes(v) == want_ledger.rx_bytes(v) &&
             got_ledger.ops(v) == want_ledger.ops(v);
    if (!same) {
      std::cerr << "[micro_hotpaths] convergecast mismatch at n = " << n
                << "\n";
      return 1;
    }
    volatile std::size_t sink = 0;
    const double walk_ms = best_ms(5, [&] {
      sink = oracle::convergecast_post_order(reports, s.tree, channel,
                                             want_ledger, options)
                 .sink_reports.size();
    });
    const double frontier_ms = best_ms(5, [&] {
      sink = convergecast(reports, s.tree, channel, got_ledger, options)
                 .sink_reports.size();
    });
    table.row()
        .cell("convergecast")
        .cell(n)
        .cell(walk_ms, 2)
        .cell(frontier_ms, 2)
        .cell(walk_ms / frontier_ms, 1);
  }

  // In-network filter: the merges of one filtered round at the
  // harbor_dense size (40 000 nodes, 32 levels), replayed hop by hop in
  // post-order over the nodes on report paths. The oracle rebuilds a
  // bucket index over report copies at every merge; the production
  // FilterIndex moves report indices and appends to per-level chains.
  // Identity-checked on the sink's kept order and the summed ops.
  {
    const int n = 40000;
    const Scenario s = harbor_scenario(n, kBenchSeed);
    const ContourQuery query = default_query(s.field, 32);
    const std::vector<IsolineReport> reports = round_reports(s, query);
    const InNetworkFilter filter = InNetworkFilter::from_query(query);
    std::vector<char> on_path(static_cast<std::size_t>(n), 0);
    for (const IsolineReport& r : reports)
      for (int v = r.source; v >= 0 && !on_path[static_cast<std::size_t>(v)];
           v = s.tree.parent(v))
        on_path[static_cast<std::size_t>(v)] = 1;
    std::vector<int> hops;  // Senders, in post-order.
    for (const int u : s.tree.post_order())
      if (u != s.tree.sink() && on_path[static_cast<std::size_t>(u)])
        hops.push_back(u);

    const auto walk = [&](double& ops) {
      std::vector<std::vector<IsolineReport>> held(static_cast<std::size_t>(n));
      for (const IsolineReport& r : reports)
        held[static_cast<std::size_t>(r.source)].push_back(r);
      for (const int u : hops) {
        auto& from = held[static_cast<std::size_t>(u)];
        oracle::merge_bucket_walk(
            filter, held[static_cast<std::size_t>(s.tree.parent(u))], from,
            &ops);
        from.clear();
      }
      std::vector<long long> ids;
      for (const IsolineReport& r : held[static_cast<std::size_t>(s.tree.sink())])
        ids.push_back(r.id);
      return ids;
    };
    const auto indexed = [&](double& ops) {
      FilterIndex index(reports);
      RoundArena arena;
      std::vector<KeptSet> held;
      held.reserve(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) held.emplace_back(arena);
      for (int id = 0; id < static_cast<int>(reports.size()); ++id)
        index.keep(held[static_cast<std::size_t>(
                       reports[static_cast<std::size_t>(id)].source)],
                   id);
      for (const int u : hops) {
        KeptSet& from = held[static_cast<std::size_t>(u)];
        filter.merge(index, held[static_cast<std::size_t>(s.tree.parent(u))],
                     from.ids(), &ops);
        from.clear();
      }
      const std::span<const int> kept =
          held[static_cast<std::size_t>(s.tree.sink())].ids();
      return std::vector<long long>(kept.begin(), kept.end());
    };
    double want_ops = 0.0, got_ops = 0.0;
    if (walk(want_ops) != indexed(got_ops) ||
        std::bit_cast<std::uint64_t>(want_ops) !=
            std::bit_cast<std::uint64_t>(got_ops)) {
      std::cerr << "[micro_hotpaths] filter_merge mismatch at n = " << n
                << "\n";
      return 1;
    }
    volatile std::size_t sink = 0;
    const double walk_ms = best_ms(5, [&] {
      double ops = 0.0;
      sink = walk(ops).size();
    });
    const double index_ms = best_ms(5, [&] {
      double ops = 0.0;
      sink = indexed(ops).size();
    });
    table.row()
        .cell("filter_merge")
        .cell(n)
        .cell(walk_ms, 2)
        .cell(index_ms, 2)
        .cell(walk_ms / index_ms, 1);
  }

  emit_table("micro_hotpaths", title, table);
  return 0;
}
