#pragma once

#include <cstdint>
#include <memory>

#include "field/bathymetry.hpp"
#include "field/gaussian_field.hpp"
#include "isomap/query.hpp"
#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "net/routing_tree.hpp"

namespace isomap {

/// Which synthetic bathymetry drives the run.
enum class FieldKind { kHarbor, kSilted, kMultiBasin, kRandom, kSloped };

/// One simulated deployment scenario, mirroring the paper's setup: n nodes
/// over a field_side x field_side normalized field (the paper's default is
/// 2,500 nodes on 50x50, density 1, radio range 1.5 -> average degree ~7).
struct ScenarioConfig {
  int num_nodes = 2500;
  double field_side = 50.0;
  /// Radio range in normalized units; <= 0 selects 1.5 / sqrt(density) so
  /// the average node degree stays ~7 across density sweeps (the paper
  /// scales the physical range the same way to keep connectivity).
  double radio_range = -1.0;
  bool grid_deployment = false;
  double failure_fraction = 0.0;
  FieldKind field = FieldKind::kHarbor;
  int random_field_bumps = 6;      ///< For FieldKind::kRandom.
  double random_field_amplitude = 4.0;
  std::uint64_t seed = 1;
  /// Sink attachment point as a fraction of the bounds (default: centre).
  double sink_fx = 0.5;
  double sink_fy = 0.5;

  /// Gaussian sensing noise (std dev, attribute units) added to each
  /// reading — sonar measurement error. 0 = the paper's noiseless traces.
  double reading_noise_std = 0.0;
  /// Gaussian localization error (std dev, field units) applied to the
  /// position each node *believes* and reports; radio connectivity still
  /// uses the physical position. 0 = exact localization.
  double position_error_std = 0.0;

  double density() const {
    return static_cast<double>(num_nodes) / (field_side * field_side);
  }
  double effective_radio_range() const;
  FieldBounds bounds() const { return {0.0, 0.0, field_side, field_side}; }
};

/// A fully materialized scenario: field, deployment (failures applied),
/// communication graph, routing tree, and per-node readings. The field is
/// polymorphic so trace-driven runs (a GridField loaded from a survey
/// file) use the same machinery as the synthetic presets.
struct Scenario {
  ScenarioConfig config;
  std::shared_ptr<const ScalarField> field_storage;
  const ScalarField& field;  ///< Alias of *field_storage.
  Deployment deployment;
  CommGraph graph;
  RoutingTree tree;
  std::vector<double> readings;
};

/// Build a scenario deterministically from its config. Throws when no
/// alive node can serve as sink.
Scenario make_scenario(const ScenarioConfig& config);

/// Build a scenario over a caller-supplied field (e.g. a GridField loaded
/// from a trace file); config.field is ignored and config.field_side is
/// derived from the field's bounds. num_nodes, deployment style,
/// failures, noise and seeds apply as usual. The field is sampled from
/// several exec threads at once, so its value() must be safe to call
/// concurrently.
Scenario make_scenario_with_field(ScenarioConfig config,
                                  std::shared_ptr<const ScalarField> field);

/// A query spanning the field's value range with `num_levels` isolevels,
/// paper-default parameters (epsilon = 0.05 T, s_a = 30 deg, s_d = 4).
ContourQuery default_query(const ScalarField& field, int num_levels = 4);

/// The fixed-window query for scaling experiments over
/// FieldKind::kSloped terrain (see sloped_seabed_bathymetry): absolute
/// isolevels, so the isoline-node strip width stays constant as the field
/// grows and Theorem 4.1's O(sqrt(n)) regime applies.
ContourQuery scaling_query();

}  // namespace isomap
