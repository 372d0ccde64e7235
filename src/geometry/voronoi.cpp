#include "geometry/voronoi.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geometry/voronoi_clip.hpp"

namespace isomap {

std::vector<int> VoronoiCell::neighbours() const {
  std::vector<int> out;
  for (int t : edge_tags)
    if (t >= 0) out.push_back(t);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool VoronoiCell::contains(Vec2 q, double eps) const {
  return Polygon(vertices).contains(q, eps);
}

VoronoiDiagram::VoronoiDiagram(std::vector<Vec2> sites, double x0, double y0,
                               double x1, double y1)
    : sites_(std::move(sites)),
      index_(sites_),
      x0_(x0),
      y0_(y0),
      x1_(x1),
      y1_(y1) {
  if (x1_ <= x0_ || y1_ <= y0_)
    throw std::invalid_argument("VoronoiDiagram: empty bounding box");
  cells_.resize(sites_.size());
  build_indexed();
}

void VoronoiDiagram::build_indexed() {
  using namespace voronoi_detail;
  // Ring-expanding enumeration over the spatial index: candidates arrive
  // in annulus batches of doubling radius, each batch sorted nearest-
  // first, until the pruning cut-off fires. Per cell this touches only
  // the local neighbourhood instead of sorting all n sites.
  const std::size_t n = sites_.size();
  const double diag = std::hypot(x1_ - x0_, y1_ - y0_);
  std::vector<int> batch;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 si = sites_[i];
    TaggedLoop loop = box_loop(x0_, y0_, x1_, y1_);
    bool duplicate = false;
    bool done = false;
    double r_lo = -1.0;  // First batch includes distance-0 duplicates.
    double r = std::max(index_.cell_size(), 1e-9);
    while (!done) {
      batch.clear();
      index_.append_annulus(si, r_lo, r, batch);
      std::sort(batch.begin(), batch.end(), [&](int a, int b) {
        const double da = (sites_[static_cast<std::size_t>(a)] - si).norm2();
        const double db = (sites_[static_cast<std::size_t>(b)] - si).norm2();
        return da < db || (da == db && a < b);
      });
      for (int j : batch) {
        if (feed_candidate(sites_, i, j, loop, duplicate)) {
          done = true;
          break;
        }
      }
      if (done || r >= diag) break;
      // Unseen sites are all farther than r; if even they are pruned,
      // the cell is final without enumerating them.
      if (r * r * 0.25 > farthest_vertex2(loop, si)) break;
      r_lo = r;
      r *= 2.0;
    }
    VoronoiCell& cell = cells_[i];
    cell.site = static_cast<int>(i);
    if (!duplicate) {
      cell.vertices = std::move(loop.vertices);
      cell.edge_tags = std::move(loop.tags);
    }
  }
}

bool VoronoiDiagram::adjacent(int i, int j) const {
  if (i < 0 || j < 0 || static_cast<std::size_t>(i) >= cells_.size() ||
      static_cast<std::size_t>(j) >= cells_.size())
    return false;
  for (int t : cells_[i].edge_tags)
    if (t == j) return true;
  return false;
}

}  // namespace isomap
