#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "isomap/continuous.hpp"
#include "sim/scenario.hpp"

namespace isomap::serve {

/// Typed validation error for service scenarios. `where()` is the JSON
/// path of the offending value ("$" is the document root, then
/// "$.deployments[2].nodes" style). Thrown — never a crash — for any
/// malformed input: syntax errors, wrong types, unknown keys,
/// out-of-range values. The scenario fuzz tests (and the ASan CI lane)
/// hold the parser to exactly this contract on arbitrary bytes.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(std::string where, const std::string& what)
      : std::runtime_error(where + ": " + what), where_(std::move(where)) {}
  const std::string& where() const { return where_; }

 private:
  std::string where_;
};

/// One hosted deployment (a service shard): a make_scenario() deployment
/// plus the continuous-mapping knobs and a deterministic field-drift
/// schedule that generates its per-round readings.
struct DeploymentSpec {
  std::string name;
  int nodes = 400;
  double field_side = 20.0;
  FieldKind field = FieldKind::kHarbor;
  /// Drift endpoint: readings blend field -> drift_target with a
  /// triangular (ping-pong) schedule of `drift_per_round` alpha per
  /// round, so long soaks keep producing reading deltas. 0 freezes the
  /// field (every round after the first is a pure cache workload).
  FieldKind drift_target = FieldKind::kSilted;
  double drift_per_round = 0.0;
  std::uint64_t seed = 1;
  int num_levels = 4;
  int stale_rounds = 0;
  ContinuousEngine engine = ContinuousEngine::kIncremental;
  double failure_fraction = 0.0;
  bool grid = false;

  ScenarioConfig to_config() const;
};

/// The synthetic query workload the service generates each tick.
struct QueryMixSpec {
  int queries_per_tick = 16;
  /// Fraction of queries asking a random proper isolevel subset (the
  /// rest ask the full level set). Subsets fragment the cache key space,
  /// lowering the hit rate.
  double subset_fraction = 0.5;
  std::uint64_t seed = 1;
};

/// A validated service scenario: everything `isomap_serve run` needs to
/// drive a deterministic multi-deployment soak. See docs/SERVICE.md for
/// the JSON schema reference.
struct ServiceScenario {
  std::string name;
  int rounds = 10;
  /// 0 = off; k = every k-th query is adversarially re-built from a
  /// fresh ContourMapBuilder pass and byte-compared with the served
  /// response (exit code 4 on any mismatch).
  int oracle_check_every = 0;
  int cache_capacity = 4096;
  std::vector<DeploymentSpec> deployments;
  QueryMixSpec query_mix;
};

/// Strict parse + validation of a scenario document. Throws ScenarioError
/// on any defect; never crashes on arbitrary input.
ServiceScenario parse_service_scenario(std::string_view text);

/// Read `path` and parse it. Unreadable files throw ScenarioError too
/// (an absent scenario is an invalid scenario, exit code 3).
ServiceScenario load_service_scenario(const std::string& path);

/// One-line-per-shard human summary printed by `isomap_serve validate`.
std::string describe(const ServiceScenario& scenario);

}  // namespace isomap::serve
