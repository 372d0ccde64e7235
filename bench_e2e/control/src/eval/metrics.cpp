#include "eval/metrics.hpp"

#include <cmath>
#include <limits>

#include "field/grid_field.hpp"
#include "geometry/marching_squares.hpp"

namespace isomap {

std::vector<Polyline> true_isolines(const ScalarField& field, double isolevel,
                                    int resolution) {
  const GridField grid = GridField::sample(field, resolution, resolution);
  return marching_squares(grid.as_sample_grid(), isolevel);
}

double mapping_accuracy(const ContourMap& map, const ScalarField& field,
                        const std::vector<double>& isolevels,
                        int resolution) {
  const LevelMap truth =
      LevelMap::ground_truth(field, isolevels, resolution, resolution);
  // Row-batched: one level_index_batch call per pixel row (point-in-
  // region sieve, no per-pixel std::function) — pointwise identical to
  // the scalar level_index walk, so the raster is bit-for-bit the same.
  const LevelMap estimate = LevelMap::rasterize_rows(
      field.bounds(), resolution, resolution,
      [&](std::span<const Vec2> pts, std::span<int> out) {
        map.level_index_batch(pts, out);
      });
  return estimate.accuracy_against(truth);
}

double isoline_hausdorff(const ContourMap& map, const ScalarField& field,
                         const std::vector<double>& isolevels,
                         int resolution, double sample_spacing) {
  double total = 0.0;
  int counted = 0;
  for (std::size_t k = 0; k < isolevels.size(); ++k) {
    const auto& estimated = map.isolines(static_cast<int>(k));
    if (estimated.empty()) continue;
    const auto truth = true_isolines(field, isolevels[k], resolution);
    if (truth.empty()) continue;
    const double h = hausdorff_distance(estimated, truth, sample_spacing);
    if (std::isfinite(h)) {
      total += h;
      ++counted;
    }
  }
  if (counted == 0) return std::numeric_limits<double>::infinity();
  return total / counted;
}

std::vector<double> level_region_iou(const ContourMap& map,
                                     const ScalarField& field,
                                     const std::vector<double>& isolevels,
                                     int resolution) {
  const LevelMap truth =
      LevelMap::ground_truth(field, isolevels, resolution, resolution);
  const LevelMap estimate = LevelMap::rasterize_rows(
      field.bounds(), resolution, resolution,
      [&](std::span<const Vec2> pts, std::span<int> out) {
        map.level_index_batch(pts, out);
      });
  const auto levels = static_cast<int>(isolevels.size());
  std::vector<long long> inter(static_cast<std::size_t>(levels), 0);
  std::vector<long long> uni(static_cast<std::size_t>(levels), 0);
  for (int iy = 0; iy < resolution; ++iy) {
    for (int ix = 0; ix < resolution; ++ix) {
      const int t = truth.at(ix, iy);
      const int e = estimate.at(ix, iy);
      for (int k = 0; k < levels; ++k) {
        const bool in_t = t >= k + 1;
        const bool in_e = e >= k + 1;
        if (in_t && in_e) ++inter[static_cast<std::size_t>(k)];
        if (in_t || in_e) ++uni[static_cast<std::size_t>(k)];
      }
    }
  }
  std::vector<double> iou(static_cast<std::size_t>(levels), 1.0);
  for (int k = 0; k < levels; ++k) {
    if (uni[static_cast<std::size_t>(k)] > 0)
      iou[static_cast<std::size_t>(k)] =
          static_cast<double>(inter[static_cast<std::size_t>(k)]) /
          static_cast<double>(uni[static_cast<std::size_t>(k)]);
  }
  return iou;
}

double mean_region_iou(const ContourMap& map, const ScalarField& field,
                       const std::vector<double>& isolevels,
                       int resolution) {
  const auto iou = level_region_iou(map, field, isolevels, resolution);
  if (iou.empty()) return 1.0;
  double total = 0.0;
  for (double v : iou) total += v;
  return total / static_cast<double>(iou.size());
}

double gradient_error_deg(const ScalarField& field, Vec2 p,
                          Vec2 estimated_descent) {
  const Vec2 true_descent = -field.gradient(p);
  return angle_between(true_descent, estimated_descent) * 180.0 / M_PI;
}

}  // namespace isomap
