#include "baselines/inlr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "baselines/aggregate_convergecast.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

using Region = InlrRegion;

Region point_region(Vec2 p, double value) {
  Region r;
  r.c0 = value;
  r.min_x = r.max_x = p.x;
  r.min_y = r.max_y = p.y;
  return r;
}

double bbox_distance(const Region& a, const Region& b) {
  const double dx =
      std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double dy =
      std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return std::hypot(dx, dy);
}

}  // namespace

InlrProtocol::InlrProtocol(InlrOptions options)
    : options_(std::move(options)) {
  options_.link.validate();
}

InlrResult InlrProtocol::run(const Deployment& deployment,
                             const std::vector<double>& readings,
                             const RoutingTree& tree, Ledger& ledger) const {
  InlrResult result;
  const int n = deployment.size();
  const int g = std::max(2, options_.integration_grid);

  // Per-node outgoing region sets, processed leaves-first.
  std::vector<std::vector<Region>> buffer(static_cast<std::size_t>(n));
  for (const auto& node : deployment.nodes()) {
    if (!node.alive || !tree.reachable(node.id)) continue;
    ++result.reports_generated;
    buffer[static_cast<std::size_t>(node.id)].push_back(
        point_region(node.pos, readings[static_cast<std::size_t>(node.id)]));
  }

  // RMS difference of two models over the union bbox. The difference is
  // *estimated* on a coarse g x g grid, but the *charged* cost models the
  // paper's fixed-resolution numerical integration over the joint region:
  // (area / step^2) grid points at ~8 flops each. Regions near the sink
  // span large areas, so their comparisons dominate — INLR's per-node
  // computation grows with network size.
  auto model_rms = [&](const Region& a, const Region& b, double& ops) {
    const double x0 = std::min(a.min_x, b.min_x);
    const double x1 = std::max(a.max_x, b.max_x);
    const double y0 = std::min(a.min_y, b.min_y);
    const double y1 = std::max(a.max_y, b.max_y);
    double acc = 0.0;
    for (int iy = 0; iy < g; ++iy) {
      for (int ix = 0; ix < g; ++ix) {
        const Vec2 p{x0 + (x1 - x0) * (ix + 0.5) / g,
                     y0 + (y1 - y0) * (iy + 0.5) / g};
        const double d = a.model(p) - b.model(p);
        acc += d * d;
      }
    }
    const double step2 =
        options_.integration_step * options_.integration_step;
    const double cells =
        std::max(static_cast<double>(g) * g,
                 (x1 - x0) * (y1 - y0) / std::max(step2, 1e-9));
    ops += cells * 8.0;
    return std::sqrt(acc / (g * g));
  };

  auto merge_regions = [&](std::vector<Region>& regions, int at_node) {
    double ops = 0.0;
    bool merged_any = true;
    while (merged_any) {
      merged_any = false;
      for (std::size_t i = 0; i < regions.size() && !merged_any; ++i) {
        for (std::size_t j = i + 1; j < regions.size(); ++j) {
          ops += 6.0;  // bbox distance test
          if (bbox_distance(regions[i], regions[j]) >
              options_.adjacency_distance)
            continue;
          if (model_rms(regions[i], regions[j], ops) >
              options_.merge_threshold)
            continue;
          // Merge j into i: count-weighted model average, joint bbox, and
          // a model refresh charge.
          Region& a = regions[i];
          Region& b = regions[j];
          const double wa = a.count, wb = b.count;
          const double w = wa + wb;
          a.c0 = (a.c0 * wa + b.c0 * wb) / w;
          a.c1 = (a.c1 * wa + b.c1 * wb) / w;
          a.c2 = (a.c2 * wa + b.c2 * wb) / w;
          a.min_x = std::min(a.min_x, b.min_x);
          a.max_x = std::max(a.max_x, b.max_x);
          a.min_y = std::min(a.min_y, b.min_y);
          a.max_y = std::max(a.max_y, b.max_y);
          a.count += b.count;
          ops += 20.0;
          regions.erase(regions.begin() + static_cast<long>(j));
          merged_any = true;
          break;
        }
      }
    }
    ledger.compute(at_node, ops);
  };

  AggregateCollection<Region> collected = aggregate_convergecast(
      std::move(buffer), tree, options_.link, options_.region_bytes, ledger,
      merge_regions);
  result.traffic_bytes = collected.traffic_bytes;
  result.batches_lost = collected.batches_lost;
  result.regions_lost = collected.items_lost;
  result.collection_latency_s = collected.collection_latency_s;
  result.sink_regions = std::move(collected.at_sink);
  result.regions_at_sink = static_cast<int>(result.sink_regions.size());
  obs::count("reports.generated", result.reports_generated);
  obs::count("aggregate.regions_at_sink", result.regions_at_sink);
  return result;
}

double InlrResult::estimated_value(Vec2 p) const {
  if (sink_regions.empty())
    return std::numeric_limits<double>::quiet_NaN();
  // Prefer the smallest region containing p (the most specific model);
  // otherwise fall back to the region whose bbox is nearest.
  const InlrRegion* best = nullptr;
  double best_area = std::numeric_limits<double>::infinity();
  for (const auto& region : sink_regions) {
    if (!region.contains(p)) continue;
    const double area = (region.max_x - region.min_x + 1e-9) *
                        (region.max_y - region.min_y + 1e-9);
    if (area < best_area) {
      best_area = area;
      best = &region;
    }
  }
  if (!best) {
    double best_d = std::numeric_limits<double>::infinity();
    for (const auto& region : sink_regions) {
      const double dx =
          std::max({0.0, region.min_x - p.x, p.x - region.max_x});
      const double dy =
          std::max({0.0, region.min_y - p.y, p.y - region.max_y});
      const double d = std::hypot(dx, dy);
      if (d < best_d) {
        best_d = d;
        best = &region;
      }
    }
  }
  return best->model(p);
}

int InlrResult::level_index(Vec2 p,
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
