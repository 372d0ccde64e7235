#include "baselines/isoline_agg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "isomap/node_selection.hpp"

namespace isomap {

std::vector<Polyline> chain_points(const std::vector<Vec2>& points,
                                   double link_radius) {
  std::vector<Polyline> chains;
  const double radius2 = link_radius * link_radius;
  std::vector<bool> used(points.size(), false);
  for (std::size_t start = 0; start < points.size(); ++start) {
    if (used[start]) continue;
    used[start] = true;
    std::vector<Vec2> chain{points[start]};
    // Grow from the tail, then from the head (so the seed point need not
    // be an endpoint of the final chain).
    for (int pass = 0; pass < 2; ++pass) {
      for (;;) {
        const Vec2 tail = pass == 0 ? chain.back() : chain.front();
        int best = -1;
        double best_d2 = radius2;
        for (std::size_t i = 0; i < points.size(); ++i) {
          if (used[i]) continue;
          const double d2 = (points[i] - tail).norm2();
          if (d2 <= best_d2) {
            best_d2 = d2;
            best = static_cast<int>(i);
          }
        }
        if (best < 0) break;
        used[static_cast<std::size_t>(best)] = true;
        if (pass == 0) chain.push_back(points[static_cast<std::size_t>(best)]);
        else chain.insert(chain.begin(), points[static_cast<std::size_t>(best)]);
      }
    }
    bool closed = false;
    if (chain.size() >= 3 &&
        chain.front().distance_to(chain.back()) <= link_radius)
      closed = true;
    chains.emplace_back(std::move(chain), closed);
  }
  return chains;
}

IsolineAggMap::IsolineAggMap(FieldBounds bounds,
                             std::vector<double> isolevels,
                             std::vector<std::vector<Polyline>> chains,
                             std::vector<Vec2> sample_positions,
                             std::vector<double> sample_readings)
    : bounds_(bounds),
      isolevels_(std::move(isolevels)),
      chains_(std::move(chains)),
      samples_(std::move(sample_positions)),
      sample_values_(std::move(sample_readings)) {}

double IsolineAggMap::interpolated_value(Vec2 q) const {
  if (samples_.size() == 0)
    return std::numeric_limits<double>::quiet_NaN();
  const auto nearest = samples_.k_nearest(q, 6);
  double weight_sum = 0.0;
  double value_sum = 0.0;
  for (int idx : nearest) {
    const double d2 =
        (samples_.points()[static_cast<std::size_t>(idx)] - q).norm2();
    if (d2 < 1e-18)
      return sample_values_[static_cast<std::size_t>(idx)];
    const double w = 1.0 / d2;
    weight_sum += w;
    value_sum += w * sample_values_[static_cast<std::size_t>(idx)];
  }
  return value_sum / weight_sum;
}

int IsolineAggMap::level_index(Vec2 q) const {
  const double v = interpolated_value(q);
  if (std::isnan(v)) return 0;
  int level = 0;
  for (double lambda : isolevels_) {
    if (v >= lambda - 1e-12) ++level;
    else break;
  }
  return level;
}

IsolineAggProtocol::IsolineAggProtocol(IsolineAggOptions options)
    : options_(std::move(options)) {}

IsolineAggResult IsolineAggProtocol::run(const std::vector<double>& readings,
                                         const Deployment& deployment,
                                         const CommGraph& graph,
                                         const RoutingTree& tree,
                                         Ledger& ledger) const {
  IsolineAggResult result;
  const ContourQuery& query = options_.query;
  const auto levels = query.isolevels();
  result.sink_points.resize(levels.size());

  // Selection is Iso-Map's Definition 3.1 (it needs no gradient).
  std::vector<double> ops;
  const auto selected = select_isoline_nodes(graph, readings, query, &ops);
  for (int v = 0; v < graph.size(); ++v)
    if (graph.alive(v)) ledger.compute(v, ops[static_cast<std::size_t>(v)]);

  auto level_of = [&](double lambda) {
    for (std::size_t k = 0; k < levels.size(); ++k)
      if (std::abs(levels[k] - lambda) < 1e-9) return static_cast<int>(k);
    return -1;
  };

  result.sink_values.resize(levels.size());

  // Convergecast with the distance-only filter.
  struct Point {
    int level;
    Vec2 pos;
    double value;
  };
  std::vector<std::vector<Point>> buffer(
      static_cast<std::size_t>(deployment.size()));
  for (const auto& entry : selected) {
    if (!tree.reachable(entry.node)) continue;
    const int level = level_of(entry.isolevel);
    if (level < 0) continue;
    buffer[static_cast<std::size_t>(entry.node)].push_back(
        {level, deployment.node(entry.node).reported_pos(),
         readings[static_cast<std::size_t>(entry.node)]});
    ++result.generated_reports;
  }

  const double sd = options_.distance_separation;
  for (int u : tree.post_order()) {
    if (u == tree.sink()) continue;
    auto& outgoing = buffer[static_cast<std::size_t>(u)];
    if (outgoing.empty()) continue;
    const int parent = tree.parent(u);
    const double bytes =
        static_cast<double>(outgoing.size()) * options_.report_bytes;
    ledger.transmit(u, parent, bytes);
    result.traffic_bytes += bytes;
    auto& inbox = buffer[static_cast<std::size_t>(parent)];
    for (const auto& incoming : outgoing) {
      bool drop = false;
      if (options_.enable_filtering) {
        for (const auto& kept : inbox) {
          ledger.compute(parent, 6.0);
          if (kept.level == incoming.level &&
              kept.pos.distance_to(incoming.pos) < sd) {
            drop = true;
            break;
          }
        }
      }
      if (!drop) inbox.push_back(incoming);
    }
    outgoing.clear();
  }

  for (const auto& point :
       buffer[static_cast<std::size_t>(tree.sink())]) {
    result.sink_points[static_cast<std::size_t>(point.level)].push_back(
        point.pos);
    result.sink_values[static_cast<std::size_t>(point.level)].push_back(
        point.value);
    ++result.delivered_reports;
  }
  return result;
}

IsolineAggMap IsolineAggProtocol::build_map(const IsolineAggResult& result,
                                            FieldBounds bounds) const {
  const auto levels = options_.query.isolevels();
  std::vector<std::vector<Polyline>> chains(levels.size());
  const double radius = options_.effective_link_radius();
  std::vector<Vec2> positions;
  std::vector<double> values;
  for (std::size_t k = 0; k < levels.size(); ++k) {
    chains[k] = chain_points(result.sink_points[k], radius);
    positions.insert(positions.end(), result.sink_points[k].begin(),
                     result.sink_points[k].end());
    values.insert(values.end(), result.sink_values[k].begin(),
                  result.sink_values[k].end());
  }
  return IsolineAggMap(bounds, levels, std::move(chains),
                       std::move(positions), std::move(values));
}

}  // namespace isomap
