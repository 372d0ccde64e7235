#pragma once

#include <vector>

#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"

namespace isomap {

/// Open or closed chain of points. Isolines (both ground truth extracted by
/// marching squares and the estimated boundaries produced by the Iso-Map
/// sink) are represented as polylines.
class Polyline {
 public:
  Polyline() = default;
  Polyline(std::vector<Vec2> points, bool closed)
      : points_(std::move(points)), closed_(closed) {}

  const std::vector<Vec2>& points() const { return points_; }
  bool closed() const { return closed_; }
  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  void push_back(Vec2 p) { points_.push_back(p); }

  double length() const;
  std::size_t num_segments() const;
  Segment segment(std::size_t i) const;

  /// Distance from a point to the polyline (min over segments; for a
  /// single-point polyline, distance to that point).
  double distance_to(Vec2 q) const;

  /// Resample into points spaced ~`spacing` apart along the chain
  /// (includes both endpoints for open chains). Requires spacing > 0.
  std::vector<Vec2> resample(double spacing) const;

  void reverse();

 private:
  std::vector<Vec2> points_;
  bool closed_ = false;
};

/// Stitch an unordered soup of segments into maximal chains by matching
/// endpoints within `tol`. Chains whose two ends meet are marked closed.
/// Zero-length segments are dropped. Shared by marching squares and the
/// Iso-Map boundary extraction.
std::vector<Polyline> stitch_segments(const std::vector<Segment>& segments,
                                      double tol);

/// Directed Hausdorff distance: max over sample points of A of the distance
/// to the nearest polyline in B. `spacing` controls the sampling density on
/// A. Returns +inf if A is non-empty and B is empty, 0 if A is empty.
double directed_hausdorff(const std::vector<Polyline>& a,
                          const std::vector<Polyline>& b, double spacing);

/// Symmetric Hausdorff distance between two polyline sets.
double hausdorff_distance(const std::vector<Polyline>& a,
                          const std::vector<Polyline>& b, double spacing);

}  // namespace isomap
