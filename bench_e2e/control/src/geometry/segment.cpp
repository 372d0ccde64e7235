#include "geometry/segment.hpp"

#include <algorithm>
#include <cmath>

namespace isomap {

HalfPlane HalfPlane::closer_to(Vec2 a, Vec2 b) {
  // |q-a|^2 <= |q-b|^2  <=>  2(b-a).q <= |b|^2 - |a|^2.
  const Vec2 n = (b - a) * 2.0;
  return HalfPlane{n, b.norm2() - a.norm2()};
}

HalfPlane HalfPlane::against_direction(Vec2 anchor, Vec2 dir) {
  return HalfPlane{dir, dir.dot(anchor)};
}

Vec2 closest_point_on_segment(Vec2 q, const Segment& s) {
  const Vec2 ab = s.b - s.a;
  const double len2 = ab.norm2();
  if (len2 == 0.0) return s.a;
  const double t = std::clamp((q - s.a).dot(ab) / len2, 0.0, 1.0);
  return s.a + ab * t;
}

double point_segment_distance(Vec2 q, const Segment& s) {
  return q.distance_to(closest_point_on_segment(q, s));
}

std::optional<Vec2> segment_intersection(const Segment& s1,
                                         const Segment& s2) {
  const Vec2 r = s1.b - s1.a;
  const Vec2 s = s2.b - s2.a;
  const double denom = r.cross(s);
  const Vec2 qp = s2.a - s1.a;
  constexpr double kEps = 1e-12;
  if (std::abs(denom) < kEps) {
    // Parallel. Check collinear overlap.
    if (std::abs(qp.cross(r)) > kEps) return std::nullopt;
    const double rlen2 = r.norm2();
    if (rlen2 < kEps) {
      // s1 degenerate to a point.
      if (point_segment_distance(s1.a, s2) < kEps) return s1.a;
      return std::nullopt;
    }
    double t0 = qp.dot(r) / rlen2;
    double t1 = t0 + s.dot(r) / rlen2;
    if (t0 > t1) std::swap(t0, t1);
    const double lo = std::max(0.0, t0);
    const double hi = std::min(1.0, t1);
    if (lo > hi + kEps) return std::nullopt;
    return s1.at(std::clamp(lo, 0.0, 1.0));
  }
  const double t = qp.cross(s) / denom;
  const double u = qp.cross(r) / denom;
  if (t < -kEps || t > 1.0 + kEps || u < -kEps || u > 1.0 + kEps)
    return std::nullopt;
  return s1.at(std::clamp(t, 0.0, 1.0));
}

std::optional<Vec2> line_segment_intersection(const Line& line,
                                              const Segment& seg) {
  const double sa = line.side(seg.a);
  const double sb = line.side(seg.b);
  constexpr double kEps = 1e-12;
  if ((sa > kEps && sb > kEps) || (sa < -kEps && sb < -kEps))
    return std::nullopt;
  const double denom = sa - sb;
  if (std::abs(denom) < kEps) {
    // Segment lies (almost) on the line; return its start.
    if (std::abs(sa) < kEps) return seg.a;
    return std::nullopt;
  }
  const double t = sa / denom;
  return seg.at(std::clamp(t, 0.0, 1.0));
}

}  // namespace isomap
