#pragma once

#include <vector>

#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"

namespace isomap {

/// Simple polygon stored as a CCW vertex loop (edge i runs from vertex i to
/// vertex (i+1) % size). Convex inputs stay convex under the clip
/// operations; the general operations (area/contains) accept any simple
/// polygon.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Vec2> vertices);

  /// Axis-aligned rectangle [x0,x1] x [y0,y1] as a CCW polygon.
  static Polygon rect(double x0, double y0, double x1, double y1);

  const std::vector<Vec2>& vertices() const { return vertices_; }
  std::size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.size() < 3; }
  Vec2 vertex(std::size_t i) const { return vertices_[i]; }
  Segment edge(std::size_t i) const {
    return {vertices_[i], vertices_[(i + 1) % vertices_.size()]};
  }

  /// Signed area; positive for CCW orientation.
  double signed_area() const;
  double area() const;
  Vec2 centroid() const;
  double perimeter() const;

  /// Point-in-polygon by winding/crossing test; boundary points count as
  /// inside (within eps).
  bool contains(Vec2 q, double eps = 1e-9) const;

  /// Sutherland-Hodgman clip against a closed half-plane. Result is the
  /// intersection; may be empty. Correct for convex polygons (the only
  /// callers: Voronoi cells and box clipping).
  Polygon clip(const HalfPlane& hp) const;

  /// Clip against an axis-aligned box.
  Polygon clip_to_rect(double x0, double y0, double x1, double y1) const;

  /// Ensure CCW orientation (reverses in place if CW).
  void make_ccw();

  /// Drop consecutive duplicate vertices (within eps).
  void dedupe(double eps = 1e-9);

 private:
  std::vector<Vec2> vertices_;
};

/// Convex hull (Andrew monotone chain) of a point set, CCW, no duplicate
/// endpoints. Collinear interior points are removed.
Polygon convex_hull(std::vector<Vec2> points);

}  // namespace isomap
