#include "sim/scenario.hpp"

#include <cmath>
#include <stdexcept>

namespace isomap {

double ScenarioConfig::effective_radio_range() const {
  if (radio_range > 0.0) return radio_range;
  const double d = density();
  if (d <= 0.0) throw std::invalid_argument("ScenarioConfig: empty field");
  return 1.5 / std::sqrt(d);
}

namespace {

GaussianField make_field(const ScenarioConfig& config, Rng& rng) {
  const FieldBounds bounds = config.bounds();
  switch (config.field) {
    case FieldKind::kHarbor:
      return harbor_bathymetry(bounds);
    case FieldKind::kSilted:
      return silted_harbor_bathymetry(bounds);
    case FieldKind::kMultiBasin:
      return multi_basin_bathymetry(bounds);
    case FieldKind::kRandom:
      return GaussianField::random(bounds, config.random_field_bumps,
                                   config.random_field_amplitude, rng);
    case FieldKind::kSloped:
      return sloped_seabed_bathymetry(bounds);
  }
  throw std::logic_error("unknown FieldKind");
}

}  // namespace

Scenario make_scenario(const ScenarioConfig& config) {
  Rng field_rng = Rng(config.seed).split();
  return make_scenario_with_field(
      config,
      std::make_shared<GaussianField>(make_field(config, field_rng)));
}

Scenario make_scenario_with_field(ScenarioConfig config,
                                  std::shared_ptr<const ScalarField> field_ptr) {
  if (!field_ptr)
    throw std::invalid_argument("make_scenario_with_field: null field");
  const ScalarField& field = *field_ptr;
  // Align the config with the supplied field's actual bounds (which may
  // not start at the origin for loaded traces).
  const FieldBounds bounds = field.bounds();
  config.field_side = bounds.width();

  Rng rng(config.seed);
  rng.split();  // Field stream (consumed by make_scenario when synthetic).
  Rng deploy_rng = rng.split();
  Rng failure_rng = rng.split();
  Rng noise_rng = rng.split();

  Deployment deployment =
      config.grid_deployment
          ? Deployment::grid(bounds, config.num_nodes)
          : Deployment::uniform_random(bounds, config.num_nodes, deploy_rng);
  if (config.failure_fraction > 0.0)
    deployment.fail_random(config.failure_fraction, failure_rng);
  if (config.position_error_std > 0.0) {
    for (auto& node : deployment.nodes()) {
      node.believed = bounds.clamp(
          node.pos + Vec2{noise_rng.normal(0.0, config.position_error_std),
                          noise_rng.normal(0.0, config.position_error_std)});
    }
  }

  CommGraph graph(deployment, config.effective_radio_range());
  const Vec2 sink_pos{bounds.x0 + bounds.width() * config.sink_fx,
                      bounds.y0 + bounds.height() * config.sink_fy};
  const int sink = deployment.nearest_alive(sink_pos);
  if (sink < 0) throw std::runtime_error("make_scenario: no alive nodes");
  RoutingTree tree(graph, sink);

  // Field values in parallel blocks, then the noise serially in node
  // order so the noise stream is unchanged.
  std::vector<double> readings;
  deployment.sense(field, readings);
  if (config.reading_noise_std > 0.0)
    for (const Node& node : deployment.nodes())
      if (node.alive)
        readings[static_cast<std::size_t>(node.id)] +=
            noise_rng.normal(0.0, config.reading_noise_std);

  return Scenario{config,
                  field_ptr,
                  *field_ptr,
                  std::move(deployment),
                  std::move(graph),
                  std::move(tree),
                  std::move(readings)};
}

ContourQuery scaling_query() {
  ContourQuery query;
  query.lambda_lo = SlopedSeabedQueryWindow::kLambdaLo;
  query.lambda_hi = SlopedSeabedQueryWindow::kLambdaHi;
  query.granularity = SlopedSeabedQueryWindow::kGranularity;
  return query;
}

ContourQuery default_query(const ScalarField& field, int num_levels) {
  if (num_levels < 1)
    throw std::invalid_argument("default_query: need >= 1 level");
  const auto [lo, hi] = field.value_range();
  ContourQuery query;
  // Inset the data space slightly so the extreme isolevels still cross
  // actual field values (isolines exist for every level).
  const double span = hi - lo;
  query.lambda_lo = lo + 0.1 * span;
  query.lambda_hi = hi - 0.1 * span;
  query.granularity = (query.lambda_hi - query.lambda_lo) / num_levels;
  return query;
}

}  // namespace isomap
