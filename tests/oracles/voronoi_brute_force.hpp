#pragma once

// Oracle for VoronoiDiagram's cells (src/geometry/voronoi.hpp): the
// indexed construction must reproduce these bit for bit.

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "geometry/vec2.hpp"
#include "geometry/voronoi.hpp"
#include "geometry/voronoi_clip.hpp"

namespace isomap::oracle {

/// The original construction: for each cell, sort every site by
/// (distance, index) and feed the whole list through the shared clip
/// step. O(n^2 log n).
inline std::vector<VoronoiCell> voronoi_cells_brute_force(
    const std::vector<Vec2>& sites, double x0, double y0, double x1,
    double y1) {
  using namespace voronoi_detail;
  const std::size_t n = sites.size();
  std::vector<VoronoiCell> cells(n);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 si = sites[i];
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double da = (sites[static_cast<std::size_t>(a)] - si).norm2();
      const double db = (sites[static_cast<std::size_t>(b)] - si).norm2();
      return da < db || (da == db && a < b);
    });
    TaggedLoop loop = box_loop(x0, y0, x1, y1);
    bool duplicate = false;
    for (int j : order)
      if (feed_candidate(sites, i, j, loop, duplicate)) break;
    VoronoiCell& cell = cells[i];
    cell.site = static_cast<int>(i);
    if (!duplicate) {
      cell.vertices = std::move(loop.vertices);
      cell.edge_tags = std::move(loop.tags);
    }
  }
  return cells;
}

}  // namespace isomap::oracle
