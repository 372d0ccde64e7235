#include "geometry/polygon.hpp"

#include <algorithm>
#include <cmath>

namespace isomap {

Polygon::Polygon(std::vector<Vec2> vertices) : vertices_(std::move(vertices)) {}

Polygon Polygon::rect(double x0, double y0, double x1, double y1) {
  return Polygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

double Polygon::signed_area() const {
  if (vertices_.size() < 3) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Vec2 a = vertices_[i];
    const Vec2 b = vertices_[(i + 1) % vertices_.size()];
    acc += a.cross(b);
  }
  return acc * 0.5;
}

double Polygon::area() const { return std::abs(signed_area()); }

Vec2 Polygon::centroid() const {
  if (vertices_.empty()) return {};
  const double a = signed_area();
  if (std::abs(a) < 1e-15) {
    // Degenerate: average the vertices.
    Vec2 sum{};
    for (Vec2 v : vertices_) sum += v;
    return sum / static_cast<double>(vertices_.size());
  }
  Vec2 c{};
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Vec2 p = vertices_[i];
    const Vec2 q = vertices_[(i + 1) % vertices_.size()];
    const double w = p.cross(q);
    c += (p + q) * w;
  }
  return c / (6.0 * a);
}

double Polygon::perimeter() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < vertices_.size(); ++i) acc += edge(i).length();
  return acc;
}

bool Polygon::contains(Vec2 q, double eps) const {
  if (vertices_.size() < 3) return false;
  // Boundary check first.
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (point_segment_distance(q, edge(i)) <= eps) return true;
  }
  // Ray crossing test.
  bool inside = false;
  for (std::size_t i = 0, j = vertices_.size() - 1; i < vertices_.size();
       j = i++) {
    const Vec2 a = vertices_[i];
    const Vec2 b = vertices_[j];
    if ((a.y > q.y) != (b.y > q.y)) {
      const double x_cross = a.x + (q.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (q.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

Polygon Polygon::clip(const HalfPlane& hp) const {
  if (vertices_.empty()) return {};
  std::vector<Vec2> out;
  out.reserve(vertices_.size() + 2);
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Vec2 cur = vertices_[i];
    const Vec2 nxt = vertices_[(i + 1) % vertices_.size()];
    const double dc = hp.signed_excess(cur);
    const double dn = hp.signed_excess(nxt);
    const bool cur_in = dc <= kEps;
    const bool nxt_in = dn <= kEps;
    if (cur_in) out.push_back(cur);
    if (cur_in != nxt_in) {
      const double denom = dc - dn;
      if (std::abs(denom) > kEps) {
        const double t = dc / denom;
        out.push_back(cur + (nxt - cur) * t);
      }
    }
  }
  Polygon result(std::move(out));
  result.dedupe();
  if (result.vertices_.size() < 3) return {};
  return result;
}

Polygon Polygon::clip_to_rect(double x0, double y0, double x1,
                              double y1) const {
  Polygon p = clip(HalfPlane{{-1.0, 0.0}, -x0});
  p = p.clip(HalfPlane{{1.0, 0.0}, x1});
  p = p.clip(HalfPlane{{0.0, -1.0}, -y0});
  return p.clip(HalfPlane{{0.0, 1.0}, y1});
}

void Polygon::make_ccw() {
  if (signed_area() < 0.0) std::reverse(vertices_.begin(), vertices_.end());
}

void Polygon::dedupe(double eps) {
  if (vertices_.empty()) return;
  std::vector<Vec2> out;
  out.reserve(vertices_.size());
  for (Vec2 v : vertices_) {
    if (out.empty() || out.back().distance_to(v) > eps) out.push_back(v);
  }
  while (out.size() > 1 && out.front().distance_to(out.back()) <= eps)
    out.pop_back();
  vertices_ = std::move(out);
}

Polygon convex_hull(std::vector<Vec2> points) {
  if (points.size() < 3) return Polygon(std::move(points));
  std::sort(points.begin(), points.end(), [](Vec2 a, Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  if (points.size() < 3) return Polygon(std::move(points));

  std::vector<Vec2> hull(2 * points.size());
  std::size_t k = 0;
  // Lower hull.
  for (const Vec2 p : points) {
    while (k >= 2 && orient(hull[k - 2], hull[k - 1], p) <= 0) --k;
    hull[k++] = p;
  }
  // Upper hull.
  const std::size_t lower = k + 1;
  for (auto it = points.rbegin() + 1; it != points.rend(); ++it) {
    while (k >= lower && orient(hull[k - 2], hull[k - 1], *it) <= 0) --k;
    hull[k++] = *it;
  }
  hull.resize(k - 1);  // Last point equals the first.
  return Polygon(std::move(hull));
}

}  // namespace isomap
