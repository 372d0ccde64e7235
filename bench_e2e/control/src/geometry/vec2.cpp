#include "geometry/vec2.hpp"

#include <algorithm>
#include <ostream>

namespace isomap {

double angle_between(Vec2 a, Vec2 b) {
  const double na = a.norm(), nb = b.norm();
  if (na == 0.0 || nb == 0.0) return M_PI;
  const double c = std::clamp(a.dot(b) / (na * nb), -1.0, 1.0);
  return std::acos(c);
}

double orient(Vec2 a, Vec2 b, Vec2 c) { return (b - a).cross(c - a); }

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << "(" << v.x << ", " << v.y << ")";
}

}  // namespace isomap
