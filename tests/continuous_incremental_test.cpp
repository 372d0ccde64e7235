// Incremental-vs-oracle equivalence for the continuous mapper. The
// incremental engine's contract is *bitwise* equality with the full
// recompute: same RoundResult counters, same ledger charges and trace
// events, same sink table, same per-level contour geometry — across
// evolving fields, node crashes mid-sequence, soft-state expiry,
// withdrawals and band-edge readings, at any thread count. Timing
// fields (wall_s, phase histograms/events) and the engine-diagnostic
// continuous.* counters are the only outputs allowed to differ.
//
// Both engines run the mapper's one round path (kOracle just drops the
// caches first), so every round is also checked against references in
// tests/oracles that share none of it: the full-scan Definition 3.1
// evaluation, the serial uncached map build and the array-of-structs
// plane fit. A cold round is also checked against IsoMapProtocol::run,
// which runs the same selection, fit and sink stages.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "isomap/continuous.hpp"
#include "isomap/node_selection.hpp"
#include "isomap/protocol.hpp"
#include "obs/obs.hpp"
#include "oracles/map_serial.hpp"
#include "oracles/regression_aos.hpp"
#include "oracles/selection_full_scan.hpp"
#include "sim/runners.hpp"

namespace isomap {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Per-round summary JSON with timing and the engine-diagnostic
/// continuous.* counters stripped (they legitimately differ between
/// engines; everything else must not).
std::string normalized(obs::RunSummary summary) {
  summary.wall_s = 0.0;
  summary.phases.clear();
  for (auto it = summary.counters.begin(); it != summary.counters.end();) {
    if (it->first.rfind("continuous.", 0) == 0)
      it = summary.counters.erase(it);
    else
      ++it;
  }
  return summary.to_json().dump(2);
}

/// Trace JSONL minus the "phase" events (which carry wall times).
std::string stable_trace(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string line, out;
  while (std::getline(in, line))
    if (line.find("\"kind\":\"phase\"") == std::string::npos) {
      out += line;
      out += '\n';
    }
  return out;
}

struct RoundCapture {
  int adds = 0, refreshes = 0, withdrawals = 0, suppressed = 0;
  int keepalives = 0, expired = 0, active_reports = 0;
  double delta_bytes = 0.0, beacon_bytes = 0.0;
  double dirty_nodes = 0.0, levels_rebuilt = 0.0;  ///< Diagnostics only.
  std::string summary;
  std::string trace;
  std::vector<ContinuousMapper::SinkDumpEntry> sink;
  std::optional<ContourMap> map;
};

void expect_maps_equal(const ContourMap& a, const ContourMap& b,
                       const std::string& where) {
  ASSERT_EQ(a.level_count(), b.level_count()) << where;
  for (int k = 0; k < a.level_count(); ++k) {
    const VoronoiDiagram& va = a.region(k).voronoi();
    const VoronoiDiagram& vb = b.region(k).voronoi();
    ASSERT_EQ(va.size(), vb.size()) << where << " level " << k;
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va.cell(i).vertices, vb.cell(i).vertices)
          << where << " level " << k << " cell " << i;
      EXPECT_EQ(va.cell(i).edge_tags, vb.cell(i).edge_tags)
          << where << " level " << k << " cell " << i;
    }
    ASSERT_EQ(a.isolines(k).size(), b.isolines(k).size())
        << where << " level " << k;
    for (std::size_t p = 0; p < a.isolines(k).size(); ++p)
      EXPECT_EQ(a.isolines(k)[p].points(), b.isolines(k)[p].points())
          << where << " level " << k << " polyline " << p;
  }
}

void expect_rounds_equal(const std::vector<RoundCapture>& a,
                         const std::vector<RoundCapture>& b,
                         const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t r = 0; r < a.size(); ++r) {
    const std::string where = label + " round " + std::to_string(r);
    EXPECT_EQ(a[r].adds, b[r].adds) << where;
    EXPECT_EQ(a[r].refreshes, b[r].refreshes) << where;
    EXPECT_EQ(a[r].withdrawals, b[r].withdrawals) << where;
    EXPECT_EQ(a[r].suppressed, b[r].suppressed) << where;
    EXPECT_EQ(a[r].keepalives, b[r].keepalives) << where;
    EXPECT_EQ(a[r].expired, b[r].expired) << where;
    EXPECT_EQ(a[r].active_reports, b[r].active_reports) << where;
    EXPECT_EQ(bits(a[r].delta_bytes), bits(b[r].delta_bytes)) << where;
    EXPECT_EQ(bits(a[r].beacon_bytes), bits(b[r].beacon_bytes)) << where;
    EXPECT_EQ(a[r].summary, b[r].summary) << where;
    EXPECT_EQ(a[r].trace, b[r].trace) << where;
    ASSERT_EQ(a[r].sink.size(), b[r].sink.size()) << where;
    for (std::size_t i = 0; i < a[r].sink.size(); ++i) {
      const auto& sa = a[r].sink[i];
      const auto& sb = b[r].sink[i];
      EXPECT_EQ(sa.node, sb.node) << where << " entry " << i;
      EXPECT_EQ(sa.level, sb.level) << where << " entry " << i;
      EXPECT_EQ(sa.last_update, sb.last_update) << where << " entry " << i;
      EXPECT_EQ(bits(sa.report.isolevel), bits(sb.report.isolevel)) << where;
      EXPECT_EQ(bits(sa.report.position.x), bits(sb.report.position.x))
          << where;
      EXPECT_EQ(bits(sa.report.position.y), bits(sb.report.position.y))
          << where;
      EXPECT_EQ(bits(sa.report.gradient.x), bits(sb.report.gradient.x))
          << where;
      EXPECT_EQ(bits(sa.report.gradient.y), bits(sb.report.gradient.y))
          << where;
      EXPECT_EQ(sa.report.source, sb.report.source) << where;
    }
    expect_maps_equal(*a[r].map, *b[r].map, where);
  }
}

/// One fully observed round: fresh per-round metrics registry and trace
/// sink, persistent ledger (charge equality accumulates).
RoundCapture observed_round(ContinuousMapper& mapper,
                            const ScalarField& field, Ledger& ledger) {
  std::ostringstream trace_text;
  obs::MetricsRegistry metrics;
  obs::TraceSink trace(trace_text);
  RoundResult result = [&] {
    const obs::ObsScope scope(&metrics, &trace);
    return mapper.round(field, ledger);
  }();
  trace.flush();
  obs::RunSummary summary = obs::make_run_summary(
      "continuous", metrics, ledger_totals(ledger), 0.0, trace.events());
  RoundCapture capture;
  capture.adds = result.adds;
  capture.refreshes = result.refreshes;
  capture.withdrawals = result.withdrawals;
  capture.suppressed = result.suppressed;
  capture.keepalives = result.keepalives;
  capture.expired = result.expired;
  capture.active_reports = result.active_reports;
  capture.delta_bytes = result.delta_traffic_bytes;
  capture.beacon_bytes = result.beacon_traffic_bytes;
  const auto dirty = summary.counters.find("continuous.dirty_nodes");
  if (dirty != summary.counters.end()) capture.dirty_nodes = dirty->second;
  const auto rebuilt = summary.counters.find("continuous.levels_rebuilt");
  if (rebuilt != summary.counters.end())
    capture.levels_rebuilt = rebuilt->second;
  capture.summary = normalized(std::move(summary));
  capture.trace = stable_trace(trace_text.str());
  capture.sink = mapper.sink_dump();
  capture.map = std::move(result.map);
  return capture;
}

/// What one round of a test sequence ran on, for the reference checks.
struct RoundContext {
  const ContinuousMapper& mapper;
  const ContinuousOptions& options;
  const Deployment& deployment;
  const CommGraph& graph;
  const ScalarField& field;
  int round;  ///< 1-based: the sink's last_update stamp for this round.
};
using RoundHook = std::function<void(const RoundContext&, const RoundCapture&)>;

/// A 22-round drifting-harbor sequence with a 15% node crash (and
/// topology rebuild) after round 9, soft-state expiry enabled, and every
/// third round held static so the fully cached paths are exercised.
/// `hook`, if set, runs after every round.
std::vector<RoundCapture> run_sequence(ContinuousEngine engine,
                                       const RoundHook& hook = {}) {
  ScenarioConfig config;
  config.num_nodes = 900;
  config.field_side = 30.0;
  config.seed = 33;
  Scenario s = make_scenario(config);
  const GaussianField before = harbor_bathymetry({0, 0, 30, 30});
  const GaussianField after = silted_harbor_bathymetry({0, 0, 30, 30});
  BlendedField field(before, after, 0.0);

  ContinuousOptions opts;
  opts.base.query = default_query(before, 4);
  opts.stale_rounds = 6;
  opts.gradient_refresh_deg = 5.0;  // Low enough that drift rotates past it.
  opts.engine = engine;

  ContinuousMapper mapper(opts, s.deployment, s.graph, s.tree);
  Ledger ledger(s.deployment.size());
  std::optional<CommGraph> crashed_graph;
  std::optional<RoutingTree> crashed_tree;

  std::vector<RoundCapture> rounds;
  double alpha = 0.0;
  for (int r = 0; r < 22; ++r) {
    if (r % 3 != 0) alpha += 0.05;  // Hold every third round static.
    field.set_alpha(alpha);
    if (r == 10) {
      Rng rng(4242);
      s.deployment.fail_random(0.15, rng);
      crashed_graph.emplace(s.deployment, s.config.effective_radio_range());
      const int sink = s.deployment.nearest_alive(field.bounds().center());
      crashed_tree.emplace(*crashed_graph, sink);
      mapper.set_topology(s.deployment, *crashed_graph, *crashed_tree);
    }
    rounds.push_back(observed_round(mapper, field, ledger));
    if (hook)
      hook({mapper, opts, s.deployment,
            crashed_graph ? *crashed_graph : s.graph, field, r + 1},
           rounds.back());
  }
  return rounds;
}

/// A static base plus a compact-support bump: readings change only inside
/// the bump's disc, so nodes just outside it keep their reading while a
/// neighbour's changes — the case mark_dirty invalidates neighbour fits
/// for.
class MovingBumpField final : public ScalarField {
 public:
  MovingBumpField(const ScalarField& base, double radius, double amplitude)
      : base_(&base), radius_(radius), amplitude_(amplitude) {}
  void set_center(Vec2 c) { center_ = c; }
  double value(Vec2 p) const override {
    const double r2 = radius_ * radius_;
    const double d2 = (p - center_).norm2();
    if (d2 >= r2) return base_->value(p);
    const double w = 1.0 - d2 / r2;
    return base_->value(p) + amplitude_ * w * w;
  }
  FieldBounds bounds() const override { return base_->bounds(); }

 private:
  const ScalarField* base_;
  Vec2 center_{};
  double radius_;
  double amplitude_;
};

/// A bump circling over the static harbor for 12 rounds. stale_rounds 2
/// makes every still-selected entry send a keep-alive each round, so every
/// live sink entry carries this round's fit.
std::vector<RoundCapture> run_bump_sequence(ContinuousEngine engine,
                                            const RoundHook& hook) {
  ScenarioConfig config;
  config.num_nodes = 900;
  config.field_side = 30.0;
  config.seed = 33;
  const Scenario s = make_scenario(config);
  const GaussianField base = harbor_bathymetry({0, 0, 30, 30});
  MovingBumpField field(base, 5.0, 3.0);

  ContinuousOptions opts;
  opts.base.query = default_query(base, 4);
  opts.stale_rounds = 2;
  opts.engine = engine;

  ContinuousMapper mapper(opts, s.deployment, s.graph, s.tree);
  Ledger ledger(s.deployment.size());
  std::vector<RoundCapture> rounds;
  for (int r = 0; r < 12; ++r) {
    const double theta = 0.5 * r;
    field.set_center(
        {15.0 + 7.0 * std::cos(theta), 15.0 + 7.0 * std::sin(theta)});
    rounds.push_back(observed_round(mapper, field, ledger));
    hook({mapper, opts, s.deployment, s.graph, field, r + 1}, rounds.back());
  }
  return rounds;
}

/// A 6 400-node drifting harbor with a bump circling over it, for 6
/// rounds: the deployment spans two of mark_dirty's 4 096-node blocks and
/// the selected set spans many refit blocks, so the seams of the parallel
/// passes are crossed. Rounds move the bump alone (a partial change: nodes
/// whose reading held keep a neighbour whose reading moved, often in the
/// other block), drift the whole field, and hold everything still.
std::vector<RoundCapture> run_multi_block_sequence(ContinuousEngine engine,
                                                   const RoundHook& hook) {
  ScenarioConfig config;
  config.num_nodes = 6400;
  config.field_side = 80.0;
  config.seed = 26;
  const Scenario s = make_scenario(config);
  const FieldBounds bounds = config.bounds();
  const GaussianField before = harbor_bathymetry(bounds);
  const GaussianField after = silted_harbor_bathymetry(bounds);
  BlendedField drift(before, after, 0.0);
  MovingBumpField field(drift, 14.0, 3.0);

  ContinuousOptions opts;
  opts.base.query = default_query(before, 6);
  opts.stale_rounds = 4;
  opts.gradient_refresh_deg = 5.0;
  opts.engine = engine;

  ContinuousMapper mapper(opts, s.deployment, s.graph, s.tree);
  Ledger ledger(s.deployment.size());
  // (alpha, bump angle) per round.
  const std::pair<double, double> schedule[] = {
      {0.0, 0.0}, {0.0, 0.6}, {0.15, 0.6}, {0.15, 0.6}, {0.3, 1.2}, {0.3, 1.8}};
  std::vector<RoundCapture> rounds;
  int r = 0;
  for (const auto& [alpha, theta] : schedule) {
    drift.set_alpha(alpha);
    field.set_center(
        {40.0 + 20.0 * std::cos(theta), 40.0 + 20.0 * std::sin(theta)});
    rounds.push_back(observed_round(mapper, field, ledger));
    ++r;
    if (hook)
      hook({mapper, opts, s.deployment, s.graph, field, r}, rounds.back());
  }
  return rounds;
}

/// The select-phase "note" lines of a stable trace.
std::string select_notes(const std::string& jsonl) {
  const std::string prefix = std::string("{\"kind\":\"note\",\"phase\":\"") +
                             obs::kPhaseSelect + "\"";
  std::istringstream in(jsonl);
  std::string line, out;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) {
      out += line;
      out += '\n';
    }
  return out;
}

/// Check one round against references independent of the mapper's round
/// path. Returns the number of sink entries whose gradient was checked.
int expect_matches_references(const RoundContext& ctx,
                              const RoundCapture& capture,
                              const std::string& where) {
  std::vector<double> readings;
  ctx.deployment.sense(ctx.field, readings);
  const ContourQuery& query = ctx.options.base.query;

  // The map is the serial uncached build over the post-filter reports.
  const ContourMap reference = oracle::serial_map(
      ctx.deployment.bounds(), ctx.options.base.regulation,
      ctx.mapper.post_filter_reports(), query.isolevels());
  expect_maps_equal(*capture.map, reference, where + " map");

  // The selection notes are those of a serial full-scan sweep over the
  // alive nodes on the same readings.
  std::ostringstream text;
  obs::TraceSink sink(text);
  const std::vector<double> levels = query.isolevels();
  std::vector<int> admitted;
  for (int v = 0; v < ctx.graph.size(); ++v) {
    if (!ctx.graph.alive(v)) continue;
    (void)oracle::selection_full_scan(ctx.graph, readings, v, levels,
                                      query.epsilon(), admitted);
    for (const int idx : admitted)
      trace_selection(&sink, v, levels[static_cast<std::size_t>(idx)]);
  }
  sink.flush();
  EXPECT_FALSE(text.str().empty()) << where << " select";
  EXPECT_EQ(select_notes(capture.trace), text.str()) << where << " select";

  // Every entry reported this round carries the AoS fit's direction over
  // the node's own and 1-hop neighbours' reported positions and readings.
  int fitted = 0;
  for (const auto& entry : ctx.mapper.sink_dump()) {
    if (entry.last_update != ctx.round) continue;
    std::vector<oracle::FieldSample> samples;
    const auto add = [&](int v) {
      samples.push_back({ctx.deployment.node(v).reported_pos(),
                         readings[static_cast<std::size_t>(v)]});
    };
    add(entry.node);
    for (const int nb : ctx.graph.neighbour_span(entry.node)) add(nb);
    const auto fit = oracle::fit_plane(samples);
    const std::string at = where + " node " + std::to_string(entry.node);
    if (!fit) {
      ADD_FAILURE() << at << ": reported a degenerate fit";
      continue;
    }
    const Vec2 d = fit->descent_direction();
    EXPECT_EQ(bits(entry.report.gradient.x), bits(d.x)) << at;
    EXPECT_EQ(bits(entry.report.gradient.y), bits(d.y)) << at;
    ++fitted;
  }
  return fitted;
}

template <typename Fn>
auto at_thread_count(int threads, Fn&& fn) {
  exec::set_thread_count(threads);
  auto result = fn();
  exec::set_thread_count(0);
  return result;
}

TEST(ContinuousIncremental, EveryRoundMatchesIndependentReferences) {
  using Sequence =
      std::vector<RoundCapture> (*)(ContinuousEngine, const RoundHook&);
  const std::pair<const char*, Sequence> sequences[] = {
      {"drift", run_sequence},
      {"bump", run_bump_sequence},
      {"multi-block", run_multi_block_sequence}};
  for (const auto& [name, sequence] : sequences) {
    for (const ContinuousEngine engine :
         {ContinuousEngine::kOracle, ContinuousEngine::kIncremental}) {
      for (const int threads : {1, 4}) {
        const std::string label =
            std::string(name) + " " +
            (engine == ContinuousEngine::kOracle ? "oracle" : "incremental") +
            "@" + std::to_string(threads);
        int fitted = 0;
        at_thread_count(threads, [&] {
          return sequence(engine, [&](const RoundContext& ctx,
                                      const RoundCapture& capture) {
            fitted += expect_matches_references(
                ctx, capture, label + " round " + std::to_string(ctx.round));
          });
        });
        EXPECT_GT(fitted, 0) << label;
      }
    }
  }
}

TEST(ContinuousIncremental, ColdRoundMatchesSingleShot) {
  // With 1-hop fits and no filter, a cold continuous round reports every
  // (source, level) that single-shot delivers, with the same bits: both
  // engines select through select_nodes, fit through PlaneFitRecord and
  // differ only in routing and byte policy.
  for (const int threads : {1, 4}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      const std::string where = "seed " + std::to_string(seed) + " @" +
                                std::to_string(threads);
      ScenarioConfig config;
      config.num_nodes = 900;
      config.field_side = 30.0;
      config.failure_fraction = 0.10;
      config.seed = seed;
      const Scenario s = make_scenario(config);
      IsoMapOptions base;
      base.query = default_query(s.field, 4);
      base.query.regression_hops = 1;
      base.query.enable_filtering = false;
      const std::vector<double> levels = base.query.isolevels();

      exec::set_thread_count(threads);
      Ledger shot_ledger(s.deployment.size());
      const IsoMapResult shot = IsoMapProtocol(base).run(
          s.readings, s.deployment, s.graph, s.tree, shot_ledger);
      ContinuousOptions opts;
      opts.base = base;
      ContinuousMapper mapper(opts, s.deployment, s.graph, s.tree);
      Ledger round_ledger(s.deployment.size());
      (void)mapper.round(s.readings, round_ledger);
      exec::set_thread_count(0);

      // Single-shot reports keyed like sink_dump: ascending (node, level).
      std::vector<ContinuousMapper::SinkDumpEntry> expected;
      for (const IsolineReport& r : shot.sink_reports) {
        const auto level = std::find_if(levels.begin(), levels.end(),
                                        [&](double l) {
                                          return bits(l) == bits(r.isolevel);
                                        });
        ASSERT_NE(level, levels.end()) << where;
        expected.push_back(
            {r.source, static_cast<int>(level - levels.begin()), r, 1});
      }
      std::sort(expected.begin(), expected.end(),
                [](const auto& a, const auto& b) {
                  return std::pair(a.node, a.level) <
                         std::pair(b.node, b.level);
                });
      const auto actual = mapper.sink_dump();
      EXPECT_GT(expected.size(), 50u) << where;
      ASSERT_EQ(actual.size(), expected.size()) << where;
      for (std::size_t i = 0; i < actual.size(); ++i) {
        const auto& a = actual[i].report;
        const auto& e = expected[i].report;
        const std::string at = where + " entry " + std::to_string(i);
        EXPECT_EQ(actual[i].node, expected[i].node) << at;
        EXPECT_EQ(actual[i].level, expected[i].level) << at;
        EXPECT_EQ(a.source, e.source) << at;
        EXPECT_EQ(bits(a.position.x), bits(e.position.x)) << at;
        EXPECT_EQ(bits(a.position.y), bits(e.position.y)) << at;
        EXPECT_EQ(bits(a.gradient.x), bits(e.gradient.x)) << at;
        EXPECT_EQ(bits(a.gradient.y), bits(e.gradient.y)) << at;
      }
    }
  }
}

TEST(ContinuousIncremental, MatchesOracleAcrossCrashesAndThreadCounts) {
  const auto oracle1 = at_thread_count(1, [] {
    return run_sequence(ContinuousEngine::kOracle);
  });
  const auto oracle4 = at_thread_count(4, [] {
    return run_sequence(ContinuousEngine::kOracle);
  });
  const auto incr1 = at_thread_count(1, [] {
    return run_sequence(ContinuousEngine::kIncremental);
  });
  const auto incr4 = at_thread_count(4, [] {
    return run_sequence(ContinuousEngine::kIncremental);
  });

  expect_rounds_equal(oracle1, oracle4, "oracle@1 vs oracle@4");
  expect_rounds_equal(oracle1, incr1, "oracle@1 vs incremental@1");
  expect_rounds_equal(oracle1, incr4, "oracle@1 vs incremental@4");

  // The sequence must actually exercise every delta kind — otherwise the
  // equivalence above is vacuous.
  int adds = 0, refreshes = 0, withdrawals = 0, keepalives = 0, expired = 0;
  for (const auto& r : oracle1) {
    adds += r.adds;
    refreshes += r.refreshes;
    withdrawals += r.withdrawals;
    keepalives += r.keepalives;
    expired += r.expired;
  }
  EXPECT_GT(adds, 0);
  EXPECT_GT(refreshes, 0);
  EXPECT_GT(withdrawals, 0);
  EXPECT_GT(keepalives, 0);
  EXPECT_GT(expired, 0);

  // And the incremental engine must actually cache: held rounds see an
  // empty node dirty set (keepalive refreshes still touch some levels),
  // partial sink rebuilds happen, and the total rebuild count undercuts
  // the oracle's rebuild-everything count.
  bool saw_clean_selection = false, saw_partial_rebuild = false;
  double incr_rebuilt = 0.0, oracle_rebuilt = 0.0;
  for (std::size_t r = 0; r < incr1.size(); ++r) {
    if (r > 0 && incr1[r].dirty_nodes == 0.0) saw_clean_selection = true;
    if (r > 0 && incr1[r].levels_rebuilt < oracle1[r].levels_rebuilt)
      saw_partial_rebuild = true;
    incr_rebuilt += incr1[r].levels_rebuilt;
    oracle_rebuilt += oracle1[r].levels_rebuilt;
  }
  EXPECT_TRUE(saw_clean_selection);
  EXPECT_TRUE(saw_partial_rebuild);
  EXPECT_LT(incr_rebuilt, oracle_rebuilt);
}

/// Two flat plateaus meeting at x = cut: every reading is one of two
/// exact constants, so band-edge cases can be staged to the ulp.
class PlateauField final : public ScalarField {
 public:
  PlateauField(FieldBounds bounds, double cut) : bounds_(bounds), cut_(cut) {}
  void set_values(double left, double right) {
    left_ = left;
    right_ = right;
  }
  double value(Vec2 p) const override { return p.x < cut_ ? left_ : right_; }
  FieldBounds bounds() const override { return bounds_; }

 private:
  FieldBounds bounds_;
  double cut_;
  double left_ = 0.0;
  double right_ = 0.0;
};

TEST(ContinuousIncremental, BandEdgeReadingsMatchOracle) {
  // Readings sit exactly on the lambda + epsilon band edge (candidacy is
  // inclusive), then step one ulp outside and back — the smallest change
  // that can flip Definition 3.1 without changing any level rank. The
  // incremental dirty marking must catch it.
  ScenarioConfig config;
  config.num_nodes = 400;
  config.field_side = 20.0;
  config.seed = 77;
  const Scenario s = make_scenario(config);

  ContinuousOptions opts;
  opts.base.query.lambda_lo = 0.0;
  opts.base.query.lambda_hi = 40.0;
  opts.base.query.granularity = 10.0;  // Levels 0..40, epsilon = 0.5.
  const double lambda = 20.0;
  const double eps = opts.base.query.epsilon();
  ASSERT_EQ(bits(eps), bits(0.5));

  PlateauField field({0, 0, 20, 20}, 10.0);
  const double on_edge = lambda + eps;
  const double outside = std::nextafter(on_edge, 1e30);
  const std::vector<std::pair<double, double>> schedule = {
      {on_edge, 19.0},   // Exactly on the band edge, crossing below.
      {outside, 19.0},   // One ulp out: no longer a candidate.
      {on_edge, 19.0},   // Back on the edge.
      {on_edge, 21.0},   // Candidate but no crossing (both above lambda).
      {on_edge, 19.0},   // Crossing returns.
  };

  auto run = [&](ContinuousEngine engine) {
    ContinuousOptions run_opts = opts;
    run_opts.engine = engine;
    ContinuousMapper mapper(run_opts, s.deployment, s.graph, s.tree);
    Ledger ledger(s.deployment.size());
    PlateauField f = field;
    std::vector<RoundCapture> rounds;
    for (const auto& [left, right] : schedule) {
      f.set_values(left, right);
      rounds.push_back(observed_round(mapper, f, ledger));
    }
    return rounds;
  };

  const auto oracle = run(ContinuousEngine::kOracle);
  const auto incremental = run(ContinuousEngine::kIncremental);
  expect_rounds_equal(oracle, incremental, "band-edge");

  // The staging must bite: the edge round selects, the ulp step withdraws.
  EXPECT_GT(oracle[0].adds, 0);
  EXPECT_GT(oracle[1].withdrawals, 0);
  EXPECT_GT(oracle[2].adds, 0);
  EXPECT_GT(oracle[3].withdrawals, 0);
}

TEST(ContinuousIncremental, MultiBlockDeploymentMatchesOracle) {
  const auto oracle = at_thread_count(1, [] {
    return run_multi_block_sequence(ContinuousEngine::kOracle, {});
  });
  const auto incremental = at_thread_count(4, [] {
    return run_multi_block_sequence(ContinuousEngine::kIncremental, {});
  });
  expect_rounds_equal(oracle, incremental,
                      "multi-block oracle@1 vs incremental@4");

  // The schedule must reach each path of the dirty pass: a bump-only
  // round dirties some nodes but not all, the held round none.
  ASSERT_EQ(incremental.size(), 6u);
  EXPECT_GT(incremental[1].dirty_nodes, 0.0);
  EXPECT_LT(incremental[1].dirty_nodes, incremental[0].dirty_nodes);
  EXPECT_EQ(incremental[3].dirty_nodes, 0.0);
  int refreshes = 0, withdrawals = 0;
  for (const auto& round : incremental) {
    refreshes += round.refreshes;
    withdrawals += round.withdrawals;
  }
  EXPECT_GT(refreshes, 0);
  EXPECT_GT(withdrawals, 0);
}

}  // namespace
}  // namespace isomap
