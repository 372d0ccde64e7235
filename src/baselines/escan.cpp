#include "baselines/escan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "baselines/aggregate_convergecast.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

using Tuple = EScanTuple;

double coverage_distance(const Tuple& a, const Tuple& b) {
  const double dx = std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double dy = std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return std::hypot(dx, dy);
}

}  // namespace

EScanProtocol::EScanProtocol(EScanOptions options)
    : options_(std::move(options)) {
  options_.link.validate();
}

EScanResult EScanProtocol::run(const Deployment& deployment,
                               const std::vector<double>& readings,
                               const RoutingTree& tree,
                               Ledger& ledger) const {
  EScanResult result;
  const int n = deployment.size();
  std::vector<std::vector<Tuple>> buffer(static_cast<std::size_t>(n));
  for (const auto& node : deployment.nodes()) {
    if (!node.alive || !tree.reachable(node.id)) continue;
    ++result.reports_generated;
    const double v = readings[static_cast<std::size_t>(node.id)];
    buffer[static_cast<std::size_t>(node.id)].push_back(
        {v, v, node.pos.x, node.pos.y, node.pos.x, node.pos.y, 1});
  }

  auto merge_tuples = [&](std::vector<Tuple>& tuples, int at_node) {
    double ops = 0.0;
    bool merged_any = true;
    while (merged_any) {
      merged_any = false;
      for (std::size_t i = 0; i < tuples.size() && !merged_any; ++i) {
        for (std::size_t j = i + 1; j < tuples.size(); ++j) {
          ops += 8.0;  // Adjacency + interval tests.
          if (coverage_distance(tuples[i], tuples[j]) >
              options_.adjacency_distance)
            continue;
          const double vmin = std::min(tuples[i].vmin, tuples[j].vmin);
          const double vmax = std::max(tuples[i].vmax, tuples[j].vmax);
          if (vmax - vmin > options_.value_tolerance) continue;
          // Polygon-merge charge: proportional to the product of the
          // member counts (the paper's worst case is cubic in scan size;
          // our bbox merge is the cheap end of that spectrum, charged
          // super-linearly to reflect coverage-boundary work).
          ops += 4.0 * static_cast<double>(tuples[i].count) *
                 static_cast<double>(tuples[j].count);
          Tuple& a = tuples[i];
          const Tuple& b = tuples[j];
          a.vmin = vmin;
          a.vmax = vmax;
          a.min_x = std::min(a.min_x, b.min_x);
          a.max_x = std::max(a.max_x, b.max_x);
          a.min_y = std::min(a.min_y, b.min_y);
          a.max_y = std::max(a.max_y, b.max_y);
          a.count += b.count;
          tuples.erase(tuples.begin() + static_cast<long>(j));
          merged_any = true;
          break;
        }
      }
    }
    ledger.compute(at_node, ops);
  };

  AggregateCollection<Tuple> collected = aggregate_convergecast(
      std::move(buffer), tree, options_.link, options_.tuple_bytes, ledger,
      merge_tuples);
  result.traffic_bytes = collected.traffic_bytes;
  result.batches_lost = collected.batches_lost;
  result.tuples_lost = collected.items_lost;
  result.collection_latency_s = collected.collection_latency_s;
  result.sink_tuples = std::move(collected.at_sink);
  result.tuples_at_sink = static_cast<int>(result.sink_tuples.size());
  obs::count("reports.generated", result.reports_generated);
  obs::count("aggregate.tuples_at_sink", result.tuples_at_sink);
  return result;
}

double EScanResult::estimated_value(Vec2 p) const {
  if (sink_tuples.empty())
    return std::numeric_limits<double>::quiet_NaN();
  const EScanTuple* best = nullptr;
  double best_area = std::numeric_limits<double>::infinity();
  for (const auto& tuple : sink_tuples) {
    if (!tuple.contains(p)) continue;
    const double area = (tuple.max_x - tuple.min_x + 1e-9) *
                        (tuple.max_y - tuple.min_y + 1e-9);
    if (area < best_area) {
      best_area = area;
      best = &tuple;
    }
  }
  if (!best) {
    double best_d = std::numeric_limits<double>::infinity();
    for (const auto& tuple : sink_tuples) {
      const double dx = std::max({0.0, tuple.min_x - p.x, p.x - tuple.max_x});
      const double dy = std::max({0.0, tuple.min_y - p.y, p.y - tuple.max_y});
      const double d = std::hypot(dx, dy);
      if (d < best_d) {
        best_d = d;
        best = &tuple;
      }
    }
  }
  return best->mid();
}

int EScanResult::level_index(Vec2 p,
                             const std::vector<double>& isolevels) const {
  const double v = estimated_value(p);
  if (std::isnan(v)) return 0;
  int level = 0;
  for (double lambda : isolevels) {
    if (v >= lambda) ++level;
    else break;
  }
  return level;
}

}  // namespace isomap
