#pragma once

#include <cstdint>
#include <vector>

#include "geometry/point_index.hpp"
#include "geometry/polygon.hpp"
#include "geometry/vec2.hpp"

namespace isomap {

/// Edge tag of a Voronoi cell edge: the index of the neighbouring site that
/// generated the edge, or kBoundaryTag for an edge lying on the bounding box.
inline constexpr int kBoundaryTag = -1;

/// A Voronoi cell: CCW convex polygon plus, for each edge (vertex i ->
/// vertex i+1), the tag identifying which neighbouring site's bisector the
/// edge lies on. The tags give the sink cell adjacency for free, which the
/// Iso-Map regulation rules (Rules 1 & 2) need.
struct VoronoiCell {
  int site = -1;                 ///< Index of the generating site.
  std::vector<Vec2> vertices;    ///< CCW loop; empty if the cell degenerated.
  std::vector<int> edge_tags;    ///< edge_tags[i] tags edge i -> i+1.

  bool empty() const { return vertices.size() < 3; }
  Polygon polygon() const { return Polygon(vertices); }
  Segment edge(std::size_t i) const {
    return {vertices[i], vertices[(i + 1) % vertices.size()]};
  }
  std::size_t size() const { return vertices.size(); }
  /// Indices of neighbouring sites (each tag >= 0, deduplicated).
  std::vector<int> neighbours() const;
  bool contains(Vec2 q, double eps = 1e-9) const;
};

/// Bounded Voronoi diagram of a site set, clipped to an axis-aligned box.
/// Built by incremental bisector clipping per cell: exact for the site
/// sets the Iso-Map sink sees, with a distance-pruning cut-off (a bisector
/// farther than twice the farthest current cell vertex cannot cut) that
/// ends each cell's enumeration after its local neighbourhood. Candidate
/// bisectors come from an expanding-ring enumeration over the spatial grid
/// index, nearest-first, so each cell touches O(its neighbourhood) sites
/// and whole-diagram construction is near-linear in the site count.
class VoronoiDiagram {
 public:
  /// Sites must be distinct; the box must contain all sites. Duplicate
  /// sites are tolerated (the duplicate gets an empty cell).
  VoronoiDiagram(std::vector<Vec2> sites, double x0, double y0, double x1,
                 double y1);

  const std::vector<Vec2>& sites() const { return sites_; }
  const std::vector<VoronoiCell>& cells() const { return cells_; }
  const VoronoiCell& cell(std::size_t i) const { return cells_[i]; }
  std::size_t size() const { return sites_.size(); }

  /// Index of the site nearest to q (ties broken by lowest index);
  /// grid-index accelerated.
  int nearest_site(Vec2 q) const { return index_.nearest(q); }

  /// True if sites i and j share a Voronoi edge.
  bool adjacent(int i, int j) const;

 private:
  void build_indexed();

  std::vector<Vec2> sites_;
  std::vector<VoronoiCell> cells_;
  PointIndex index_;
  double x0_, y0_, x1_, y1_;
};

}  // namespace isomap
