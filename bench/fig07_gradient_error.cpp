// Fig. 7: error between the regression-estimated gradient direction and
// the true isoline normal, as a function of the average node degree.
// Paper expectation: the error drops rapidly with degree; at the typical
// connected-deployment degree of ~7 it is suppressed to within ~5 deg.

#include "bench/bench_common.hpp"
#include "isomap/node_selection.hpp"
#include "isomap/regression.hpp"

using namespace isomap;
using namespace isomap::bench;

int main() {
  const std::string title = banner("Fig. 7", "gradient direction error vs average node degree",
         "error falls quickly; within ~5 deg at degree >= 7");

  Table table({"target_degree", "measured_degree", "mean_err_deg",
               "p90_err_deg", "max_err_deg", "samples"});

  for (int degree = 4; degree <= 16; degree += 2) {
    // Radio range for a target mean degree at unit density:
    // deg = pi r^2 => r = sqrt(deg / pi).
    const double radio = std::sqrt(degree / M_PI);
    RunningStats err;
    SampleSet samples;
    double measured_degree = 0.0;
    int runs = 0;
    for (std::uint64_t trial = 1; trial <= 5; ++trial) {
      const std::uint64_t seed = trial_seed(trial);
      ScenarioConfig config;
      config.num_nodes = 2500;
      config.field_side = 50.0;
      config.field = FieldKind::kRandom;
      config.radio_range = radio;
      config.seed = seed;
      const Scenario s = make_scenario(config);
      measured_degree += s.graph.average_degree();
      ++runs;

      const ContourQuery query = default_query(s.field, 4);
      const auto selected =
          select_isoline_nodes(s.graph, s.readings, query);
      std::vector<double> xs, ys, vs;
      const auto add_sample = [&](int v) {
        const Vec2 p = s.deployment.node(v).pos;
        xs.push_back(p.x);
        ys.push_back(p.y);
        vs.push_back(s.readings[static_cast<std::size_t>(v)]);
      };
      for (const auto& entry : selected) {
        const Node& node = s.deployment.node(entry.node);
        xs.clear();
        ys.clear();
        vs.clear();
        add_sample(entry.node);
        for (int nb : s.graph.neighbours(entry.node)) add_sample(nb);
        const auto fit = fit_plane_soa(xs, ys, vs);
        if (!fit) continue;
        if (s.field.gradient(node.pos).norm() < 0.02) continue;
        const double e =
            gradient_error_deg(s.field, node.pos, fit->descent_direction());
        err.add(e);
        samples.add(e);
      }
    }
    table.row()
        .cell(degree)
        .cell(measured_degree / runs, 2)
        .cell(err.mean(), 2)
        .cell(samples.quantile(0.9), 2)
        .cell(err.max(), 2)
        .cell(err.count());
  }
  emit_table("fig07", title, table);
  return 0;
}
