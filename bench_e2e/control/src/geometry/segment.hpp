#pragma once

#include <optional>

#include "geometry/vec2.hpp"

namespace isomap {

/// Closed line segment [a, b].
struct Segment {
  Vec2 a;
  Vec2 b;

  double length() const { return a.distance_to(b); }
  Vec2 midpoint() const { return (a + b) * 0.5; }
  Vec2 direction() const { return (b - a).normalized(); }

  /// Point at parameter t in [0,1] along the segment.
  Vec2 at(double t) const { return a + (b - a) * t; }
};

/// Infinite line through `point` with direction `dir` (need not be unit).
struct Line {
  Vec2 point;
  Vec2 dir;

  /// Signed distance-like value: >0 if q lies to the left of the line.
  double side(Vec2 q) const { return dir.cross(q - point); }
};

/// Closed half-plane { q : normal . q <= offset }. Used for Voronoi bisector
/// clipping and for the type-1 boundary cut in Iso-Map cells.
struct HalfPlane {
  Vec2 normal;
  double offset = 0.0;

  bool contains(Vec2 q, double eps = 1e-12) const {
    return normal.dot(q) <= offset + eps;
  }
  double signed_excess(Vec2 q) const { return normal.dot(q) - offset; }

  /// Half-plane of points at least as close to `a` as to `b` (perpendicular
  /// bisector clip used by Voronoi cell construction).
  static HalfPlane closer_to(Vec2 a, Vec2 b);
  /// Half-plane of points q with (q - anchor) . dir <= 0.
  static HalfPlane against_direction(Vec2 anchor, Vec2 dir);
};

/// Distance from point q to segment s.
double point_segment_distance(Vec2 q, const Segment& s);

/// Closest point on segment s to q.
Vec2 closest_point_on_segment(Vec2 q, const Segment& s);

/// Proper / touching intersection of two closed segments, if any. For
/// collinear overlapping segments returns one shared point.
std::optional<Vec2> segment_intersection(const Segment& s1, const Segment& s2);

/// Intersection of an infinite line with a closed segment, if any.
std::optional<Vec2> line_segment_intersection(const Line& line,
                                              const Segment& seg);

}  // namespace isomap
