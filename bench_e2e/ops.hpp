#pragma once

// The workloads' inputs and timed operations, written once against the
// simulator's public API and compiled twice: by workloads.cpp against src/
// (the program under test) and by control/control.cpp against control/src/
// (the frozen snapshot, its namespace renamed). Both sides therefore run
// the same operations on the same inputs, timed the same way.
//
// Each instance's constructor is the workload's set-up. round() and batch()
// time themselves and return milliseconds; the previous round's output is
// released before the clock starts.

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "clock.hpp"
#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "isomap/continuous.hpp"
#include "serve/service.hpp"
#include "sim/runners.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace isomap::e2e {

/// Queries per round: the service's queries_per_tick, and the one reader
/// batch a mapping workload answers after each round.
constexpr int kQueriesPerBatch = 256;
constexpr std::uint64_t kLookupSeedSalt = 0x6C6F6F6B7570ULL;  ///< "lookup".

/// The readers of a mapping workload: after every round, one batch of
/// kQueriesPerBatch depth-band lookups at seeded uniform positions, answered
/// from the fresh map in one level_index_batch call.
class Readers {
 public:
  explicit Readers(std::uint64_t seed)
      : rng_(seed ^ kLookupSeedSalt),
        queries_(kQueriesPerBatch),
        answers_(kQueriesPerBatch) {}

  /// Draw the next batch's positions inside `map`'s bounds.
  void draw(const ContourMap& map) {
    const FieldBounds& b = map.bounds();
    for (Vec2& q : queries_)
      q = {rng_.uniform(b.x0, b.x1), rng_.uniform(b.y0, b.y1)};
  }
  double answer(const ContourMap& map) {
    const auto t0 = Clock::now();
    map.level_index_batch(queries_, answers_);
    return ms_since(t0);
  }

  std::span<const Vec2> queries() const { return queries_; }
  std::span<const int> answers() const { return answers_; }

 private:
  Rng rng_;
  std::vector<Vec2> queries_;
  std::vector<int> answers_;
};

// ---- One-shot workloads -----------------------------------------------------

inline ScenarioConfig scale_1m_config(std::uint64_t seed, bool smoke) {
  ScenarioConfig c;
  c.num_nodes = smoke ? 2500 : 1000000;
  c.field_side = std::sqrt(static_cast<double>(c.num_nodes));
  c.field = FieldKind::kSloped;
  c.seed = seed;
  return c;
}

inline IsoMapOptions scaling_options(const Scenario&) {
  IsoMapOptions options;
  options.query = scaling_query();
  return options;
}

inline ScenarioConfig harbor_dense_config(std::uint64_t seed, bool smoke) {
  ScenarioConfig c;
  c.num_nodes = smoke ? 2500 : 40000;
  c.field_side = 50.0;
  c.field = FieldKind::kHarbor;
  c.seed = seed;
  return c;
}

inline IsoMapOptions dense_harbor_options(const Scenario& s) {
  IsoMapOptions options = isomap_options(s, 32);
  options.query.distance_separation = 1.0;
  options.query.angular_separation_deg = 10.0;
  return options;
}

using OptionsFn = IsoMapOptions (*)(const Scenario&);

/// A one-shot deployment: set-up is make_scenario, a round is run_isomap on
/// the fixed readings.
struct OneShot {
  OneShot(const ScenarioConfig& c, OptionsFn make_options)
      : scenario(make_scenario(c)),
        options(make_options(scenario)),
        readers(c.seed) {}

  double round(int /*round*/) {
    last.reset();
    const auto t0 = Clock::now();
    last.emplace(run_isomap(scenario, options));
    return ms_since(t0);
  }
  void prepare_batch() { readers.draw(last->result.map); }
  double batch() { return readers.answer(last->result.map); }

  Scenario scenario;
  IsoMapOptions options;
  Readers readers;
  std::optional<IsoMapRun> last;
};

// ---- Continuous mapping -----------------------------------------------------

constexpr int kDriftLevels = 8;

/// Drift schedule toward the silted harbor: alpha = 0.5 - 0.5 cos(0.05 r).
inline double drift_alpha(int round) {
  return 0.5 - 0.5 * std::cos(0.05 * round);
}

inline ScenarioConfig harbor_drift_config(std::uint64_t seed, bool smoke) {
  ScenarioConfig c;
  c.num_nodes = smoke ? 2500 : 40000;
  c.field_side = smoke ? 50.0 : 200.0;
  c.field = FieldKind::kHarbor;
  c.seed = seed;
  return c;
}

inline void sample_into(const ScalarField& field, const Deployment& deployment,
                        std::vector<double>& readings) {
  readings.assign(static_cast<std::size_t>(deployment.size()), 0.0);
  for (const Node& node : deployment.nodes())
    if (node.alive)
      readings[static_cast<std::size_t>(node.id)] = field.value(node.pos);
}

/// One harbor_drift deployment: scenario, drift target and a mapper bound
/// to the scenario's deployment, graph and tree (so it never moves). A round
/// senses the blended field, then runs the mapper.
struct Drift {
  explicit Drift(const ScenarioConfig& c)
      : scenario(make_scenario(c)),
        silted(silted_harbor_bathymetry(c.bounds())),
        options(make_options(scenario)),
        mapper(options, scenario.deployment, scenario.graph, scenario.tree),
        ledger(scenario.deployment.size()),
        field(scenario.field, silted, 0.0),
        readers(c.seed) {}
  Drift(const Drift&) = delete;
  Drift& operator=(const Drift&) = delete;

  static ContinuousOptions make_options(const Scenario& s) {
    ContinuousOptions options;
    options.base.query = default_query(s.field, kDriftLevels);
    return options;
  }

  void sense(int round) {
    field.set_alpha(drift_alpha(round));
    sample_into(field, scenario.deployment, readings);
  }
  double round(int round) {
    last.reset();
    const auto t0 = Clock::now();
    sense(round);
    last.emplace(mapper.round(readings, ledger));
    return ms_since(t0);
  }
  void prepare_batch() { readers.draw(last->map); }
  double batch() { return readers.answer(last->map); }

  Scenario scenario;
  GaussianField silted;
  ContinuousOptions options;
  ContinuousMapper mapper;
  Ledger ledger;
  BlendedField field;  ///< scenario.field blended toward silted.
  std::vector<double> readings;
  Readers readers;
  std::optional<RoundResult> last;
};

// ---- Map service ------------------------------------------------------------

inline serve::ServiceScenario service_scenario(std::uint64_t seed, bool smoke) {
  Rng seeds(seed);
  serve::ServiceScenario sc;
  sc.name = "e2e_service_mixed";
  sc.cache_capacity = 4096;
  serve::DeploymentSpec harbor;
  harbor.name = "harbor";
  harbor.nodes = smoke ? 400 : 2500;
  harbor.field_side = smoke ? 20.0 : 50.0;
  harbor.field = FieldKind::kHarbor;
  harbor.drift_target = FieldKind::kSilted;
  harbor.drift_per_round = 0.01;
  harbor.seed = seeds.next();
  harbor.num_levels = 8;
  serve::DeploymentSpec basin = harbor;
  basin.name = "basin";
  basin.field = FieldKind::kMultiBasin;
  basin.drift_per_round = 0.0;
  basin.seed = seeds.next();
  sc.deployments = {harbor, basin};
  sc.query_mix.queries_per_tick = kQueriesPerBatch;
  sc.query_mix.subset_fraction = 0.5;
  sc.query_mix.seed = seeds.next();
  return sc;
}

/// The map service: set-up is the IsoMapService constructor, a round is
/// tick(), and the batch is serve_batch(mix_for_tick()).
struct Service {
  explicit Service(const serve::ServiceScenario& sc) : svc(sc) {}

  double round(int /*round*/) {
    const auto t0 = Clock::now();
    svc.tick();
    return ms_since(t0);
  }
  void prepare_batch() {
    responses.clear();
    mix = svc.mix_for_tick();
  }
  double batch() {
    const auto t0 = Clock::now();
    responses = svc.serve_batch(mix);
    return ms_since(t0);
  }

  serve::IsoMapService svc;
  std::vector<serve::QueryRequest> mix;
  std::vector<serve::QueryResponse> responses;
};

}  // namespace isomap::e2e
