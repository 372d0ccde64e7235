#pragma once

// Oracle for VoronoiDiagram::adjacent: the Delaunay triangulation is the
// Voronoi diagram's planar dual, so every Voronoi edge must be one of its
// edges.

#include <array>
#include <vector>

#include "geometry/vec2.hpp"

namespace isomap {

/// A triangle of a Delaunay triangulation, referring to input point indices.
struct Triangle {
  std::array<int, 3> v;  ///< Vertex indices, CCW.

  bool has_vertex(int idx) const {
    return v[0] == idx || v[1] == idx || v[2] == idx;
  }
};

/// Delaunay triangulation via the Bowyer-Watson incremental algorithm.
/// Built independently of VoronoiDiagram, so the two cross-validate.
class DelaunayTriangulation {
 public:
  explicit DelaunayTriangulation(const std::vector<Vec2>& points);

  const std::vector<Vec2>& points() const { return points_; }
  const std::vector<Triangle>& triangles() const { return triangles_; }

  /// True if points i and j share a triangulation edge.
  bool adjacent(int i, int j) const;

  /// All points sharing an edge with i.
  std::vector<int> neighbours(int i) const;

  /// Triangle containing q (index into triangles()), or -1 if q is outside
  /// the convex hull.
  int locate(Vec2 q) const;

  /// Barycentric coordinates of q within triangle t.
  std::array<double, 3> barycentric(int t, Vec2 q) const;

 private:
  std::vector<Vec2> points_;
  std::vector<Triangle> triangles_;
};

/// True if point d lies strictly inside the circumcircle of CCW triangle
/// (a, b, c).
bool in_circumcircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

}  // namespace isomap
