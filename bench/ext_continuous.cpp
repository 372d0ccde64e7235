// Extension: continuous contour mapping of an evolving field (the
// paper's stated deployment goal — continuous siltation monitoring — and
// its future-work direction). Two experiments share this bench:
//
//  1. Traffic: the harbor seabed drifts from the normal bathymetry to the
//     post-storm one over `rounds` rounds; the incremental delta protocol
//     (ContinuousMapper) is compared with re-running the one-shot Iso-Map
//     protocol every round. Expectation: per-round delta traffic is a
//     small fraction of a full snapshot while the field drifts slowly,
//     spikes while isolines move fastest, and accuracy stays comparable.
//
//  2. Round engines: per-round CPU cost of the full-recompute oracle vs
//     the incremental dirty-set engine while a localized disturbance
//     touches a controlled fraction of readings per round. Both engines
//     produce identical rounds (spot-checked on a running checksum); the
//     incremental one skips clean nodes, cached fits and clean isolevels.
//     Expectation: >= 5x per-round speedup at <= 10% changed readings.
//
// Usage: ext_continuous [num_nodes] [rounds] (defaults 2500, 20).

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench/bench_common.hpp"
#include "field/blended_field.hpp"
#include "isomap/continuous.hpp"
#include "obs/obs.hpp"

using namespace isomap;
using namespace isomap::bench;

namespace {

/// Base field plus a compactly supported bump of radius r around a
/// movable centre: outside the radius the value equals the base field
/// exactly (bitwise), so the fraction of nodes whose reading changes per
/// round is controlled by r and the centre's motion.
class BumpField final : public ScalarField {
 public:
  BumpField(const ScalarField& base, double radius, double amplitude)
      : base_(&base), radius_(radius), amplitude_(amplitude) {}

  void set_center(Vec2 c) { center_ = c; }

  double value(Vec2 p) const override {
    const double base_v = base_->value(p);
    const double dx = p.x - center_.x;
    const double dy = p.y - center_.y;
    const double d2 = dx * dx + dy * dy;
    const double r2 = radius_ * radius_;
    if (d2 >= r2) return base_v;
    const double w = 1.0 - d2 / r2;  // 1 at the centre, exactly 0 at r.
    return base_v + amplitude_ * w * w;
  }

  FieldBounds bounds() const override { return base_->bounds(); }

 private:
  const ScalarField* base_;
  Vec2 center_{-1e9, -1e9};  // Far away: bump initially inert.
  double radius_;
  double amplitude_;
};

double wall_ms(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const int num_nodes = argc > 1 ? std::atoi(argv[1]) : 2500;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 20;
  const std::string title =
      banner("Extension", "continuous mapping of an evolving harbor bed",
             "delta traffic << snapshot re-runs; incremental engine >= 5x "
             "oracle at <= 10% changed readings");

  const Scenario s = harbor_scenario(num_nodes, kBenchSeed);
  const double side = s.config.field_side;
  const FieldBounds bounds = {0, 0, side, side};
  const GaussianField before = harbor_bathymetry(bounds);
  const GaussianField after = silted_harbor_bathymetry(bounds);

  ContinuousOptions options;
  options.base.query = default_query(before, 4);
  const auto levels = options.base.query.isolevels();

  // ---- Experiment 1: delta traffic vs snapshot re-runs. ----
  ContinuousMapper mapper(options, s.deployment, s.graph, s.tree);
  Ledger cont_ledger(s.deployment.size());

  Table drift({"round", "alpha", "adds", "refresh", "withdraw", "delta_KB",
               "snapshot_KB", "cont_acc_pct", "snap_acc_pct"});

  double delta_total = 0.0, snapshot_total = 0.0;
  BlendedField field(before, after, 0.0);
  for (int round = 0; round < rounds; ++round) {
    // Storm hits around 40% of the way in: sigmoid drift of the seabed.
    const double alpha = 1.0 / (1.0 + std::exp(-(round - 0.4 * rounds)));
    field.set_alpha(alpha);

    const RoundResult r = mapper.round(field, cont_ledger);
    const double cont_acc =
        mapping_accuracy(r.map, field, levels, 60) * 100.0;

    // Snapshot comparator: full one-shot protocol on the same field state.
    Ledger snap_ledger(s.deployment.size());
    IsoMapProtocol snapshot(options.base);
    std::vector<double> readings;
    s.deployment.sense(field, readings);
    const IsoMapResult snap =
        snapshot.run(readings, s.deployment, s.graph, s.tree, snap_ledger);
    const double snap_acc =
        mapping_accuracy(snap.map, field, levels, 60) * 100.0;

    delta_total += r.delta_traffic_bytes;
    snapshot_total += snap.report_traffic_bytes;
    drift.row()
        .cell(round)
        .cell(alpha, 2)
        .cell(r.adds)
        .cell(r.refreshes)
        .cell(r.withdrawals)
        .cell(r.delta_traffic_bytes / 1024.0, 2)
        .cell(snap.report_traffic_bytes / 1024.0, 2)
        .cell(cont_acc, 1)
        .cell(snap_acc, 1);
  }
  drift.print(std::cout);
  std::cout << "\nTotals over " << rounds << " rounds: delta "
            << delta_total / 1024.0 << " KB vs snapshot re-runs "
            << snapshot_total / 1024.0 << " KB ("
            << snapshot_total / std::max(delta_total, 1.0)
            << "x reduction); 1-hop beacons add "
            << 2.0 * s.deployment.alive_count() * rounds / 1024.0
            << " KB of local traffic.\n\n";

  // ---- Experiment 2: oracle vs incremental round engine. ----
  // A compact disturbance orbits the field; its radius sets the fraction
  // of readings it can touch. Each engine runs the same seeded sequence;
  // per-round wall time excludes the untimed priming round.
  //
  // The regime is the steady-state monitoring case the incremental engine
  // targets: a dense level query (many isolevels, as a bathymetric chart
  // has) over a smooth field, with a disturbance whose amplitude sits
  // below the band epsilon. Readings inside the disk change bitwise every
  // round (the changed_pct column), but they rarely move a node across a
  // band edge or rotate a gradient past the refresh threshold — so the
  // dirty set stays small and most isolevel regions are reused. The base
  // field is a plain linear ramp so the timings measure the engines, not
  // the bathymetry's Gaussian evaluations.
  const int cost_rounds = std::max(4, rounds / 2);
  const int reps = 3;  // Best-of-reps defends the ratio against scheduler jitter.
  const GaussianField ramp(bounds, 0.0, {1.0, 0.35}, {});
  ContinuousOptions cost_options;
  cost_options.base.query = default_query(ramp, 64);
  const double amplitude = 0.02 * cost_options.base.query.granularity;
  Table engines({"delta_pct", "changed_pct", "dirty_pct", "rebuilt_mean",
                 "oracle_ms", "incr_ms", "speedup"});

  const auto median_of = [](std::vector<double> v) {
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
    return v[mid];
  };

  for (const double fraction : {0.01, 0.05, 0.10, 0.25, 1.0}) {
    // The per-round changed set is the union of the disk and its previous
    // position, so the swept strip counts toward the fraction too: solve
    // pi*rho^2 + 2*rho*chord = fraction for the radius (in units of side)
    // or a "10%" run actually touches ~12% of readings.
    const double step = 0.35;  // Orbit step per round, radians.
    const double chord = 2.0 * 0.22 * std::sin(step / 2.0);
    const double rho =
        fraction >= 1.0
            ? 2.0
            : (std::sqrt(chord * chord + M_PI * fraction) - chord) / M_PI;
    const double radius = side * rho;
    double engine_ms[2] = {1e300, 1e300};
    double changed_mean = 0.0, dirty_mean = 0.0, rebuilt_mean = 0.0;

    for (int rep = 0; rep < reps; ++rep) {
      double checksum[2] = {0.0, 0.0};
      for (const ContinuousEngine engine :
           {ContinuousEngine::kOracle, ContinuousEngine::kIncremental}) {
        const int ei = engine == ContinuousEngine::kIncremental ? 1 : 0;
        ContinuousOptions opts = cost_options;
        opts.engine = engine;
        ContinuousMapper m(opts, s.deployment, s.graph, s.tree);
        Ledger ledger(s.deployment.size());
        BumpField bump(ramp, radius, amplitude);

        std::vector<double> prev(
            static_cast<std::size_t>(s.deployment.size()), 0.0);
        std::vector<double> samples;
        samples.reserve(static_cast<std::size_t>(cost_rounds));
        for (int round = 0; round <= cost_rounds; ++round) {
          const double theta = step * round;
          bump.set_center({side * (0.5 + 0.22 * std::cos(theta)),
                           side * (0.5 + 0.22 * std::sin(theta))});
          obs::MetricsRegistry metrics;
          const auto start = std::chrono::steady_clock::now();
          const RoundResult r = [&] {
            const obs::ObsScope scope(&metrics, nullptr);
            return m.round(bump, ledger);
          }();
          const double ms = wall_ms(start);
          checksum[ei] += r.adds + r.withdrawals + r.active_reports +
                          r.delta_traffic_bytes;
          if (ei == 1 && rep == 0) {
            int changed = 0;
            for (const auto& node : s.deployment.nodes())
              if (node.alive) {
                const double v = bump.value(node.pos);
                const auto id = static_cast<std::size_t>(node.id);
                if (v != prev[id]) ++changed;
                prev[id] = v;
              }
            if (round > 0) changed_mean += changed;
          }
          if (round == 0) continue;  // Priming round: both engines cold.
          samples.push_back(ms);
          if (ei == 1 && rep == 0) {
            dirty_mean += metrics.counter("continuous.dirty_nodes");
            rebuilt_mean += metrics.counter("continuous.levels_rebuilt");
          }
        }
        engine_ms[ei] = std::min(engine_ms[ei], median_of(std::move(samples)));
      }
      if (checksum[0] != checksum[1]) {
        std::cerr << "[ext_continuous] engine outputs diverged at fraction "
                  << fraction << "\n";
        return 1;
      }
    }
    const double n_alive = static_cast<double>(s.deployment.alive_count());
    engines.row()
        .cell(fraction * 100.0, 0)
        .cell(100.0 * changed_mean / cost_rounds / n_alive, 1)
        .cell(100.0 * dirty_mean / cost_rounds / n_alive, 1)
        .cell(rebuilt_mean / cost_rounds, 1)
        .cell(engine_ms[0], 3)
        .cell(engine_ms[1], 3)
        .cell(engine_ms[0] / std::max(engine_ms[1], 1e-9), 1);
  }
  engines.print(std::cout);

  // One combined JSON artifact: both tables under BENCH_ext_continuous.
  JsonValue payload = JsonValue::object();
  payload["bench"] = JsonValue(std::string("ext_continuous"));
  payload["title"] = JsonValue(title);
  payload["seed_base"] = JsonValue(kBenchSeed);
  payload["num_nodes"] = JsonValue(num_nodes);
  payload["rounds"] = JsonValue(rounds);
  payload["drift_table"] = table_json(drift);
  payload["engine_table"] = table_json(engines);
  const std::string path = write_bench_json("ext_continuous", payload);
  if (!path.empty()) std::cout << "[bench] wrote " << path << "\n";
  return 0;
}
