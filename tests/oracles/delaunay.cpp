#include "oracles/delaunay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace isomap {

bool in_circumcircle(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  // Sign of the 3x3 determinant of the lifted points; positive means d is
  // inside the circumcircle of CCW (a, b, c).
  const double ax = a.x - d.x, ay = a.y - d.y;
  const double bx = b.x - d.x, by = b.y - d.y;
  const double cx = c.x - d.x, cy = c.y - d.y;
  const double det =
      (ax * ax + ay * ay) * (bx * cy - cx * by) -
      (bx * bx + by * by) * (ax * cy - cx * ay) +
      (cx * cx + cy * cy) * (ax * by - bx * ay);
  return det > 0.0;
}

namespace {

struct Tri {
  int a, b, c;   // Vertex indices (may reference the super-triangle).
  bool alive = true;
};

using Edge = std::pair<int, int>;

Edge make_edge(int u, int v) { return u < v ? Edge{u, v} : Edge{v, u}; }

}  // namespace

DelaunayTriangulation::DelaunayTriangulation(const std::vector<Vec2>& points)
    : points_(points) {
  const int n = static_cast<int>(points_.size());
  if (n < 3) return;

  // Super-triangle enclosing all points with a wide margin.
  double min_x = points_[0].x, max_x = points_[0].x;
  double min_y = points_[0].y, max_y = points_[0].y;
  for (const Vec2 p : points_) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double span = std::max({max_x - min_x, max_y - min_y, 1.0});
  const Vec2 mid{(min_x + max_x) * 0.5, (min_y + max_y) * 0.5};
  std::vector<Vec2> pts = points_;
  const int s0 = n, s1 = n + 1, s2 = n + 2;
  // The super-triangle must lie outside the circumcircle of every real
  // triangle — including thin hull slivers with huge circumradii — or
  // genuine hull triangles get suppressed and removal leaves notches.
  const double far = 1e5 * span;
  pts.push_back(mid + Vec2{-2.0 * far, -far});
  pts.push_back(mid + Vec2{2.0 * far, -far});
  pts.push_back(mid + Vec2{0.0, 2.0 * far});

  std::vector<Tri> tris;
  tris.push_back({s0, s1, s2});

  auto ccw = [&](Tri& t) {
    if (orient(pts[t.a], pts[t.b], pts[t.c]) < 0) std::swap(t.b, t.c);
  };
  ccw(tris[0]);

  for (int i = 0; i < n; ++i) {
    const Vec2 p = pts[i];
    // Find all triangles whose circumcircle contains p.
    std::map<Edge, int> edge_count;
    std::vector<Edge> boundary;
    std::vector<std::size_t> bad;
    for (std::size_t t = 0; t < tris.size(); ++t) {
      if (!tris[t].alive) continue;
      if (in_circumcircle(pts[tris[t].a], pts[tris[t].b], pts[tris[t].c], p))
        bad.push_back(t);
    }
    // The cavity must contain the triangle geometrically holding p, or the
    // retriangulation leaves a hole; numerically-borderline circumcircle
    // tests (p on an edge / near-cocircular) can miss it, so add it
    // explicitly.
    for (std::size_t t = 0; t < tris.size(); ++t) {
      if (!tris[t].alive) continue;
      const Vec2 a = pts[tris[t].a], b = pts[tris[t].b], c = pts[tris[t].c];
      constexpr double kEps = -1e-9;
      if (orient(a, b, p) >= kEps && orient(b, c, p) >= kEps &&
          orient(c, a, p) >= kEps) {
        if (std::find(bad.begin(), bad.end(), t) == bad.end())
          bad.push_back(t);
        break;
      }
    }
    for (std::size_t t : bad) {
      tris[t].alive = false;
      for (const Edge& e : {make_edge(tris[t].a, tris[t].b),
                            make_edge(tris[t].b, tris[t].c),
                            make_edge(tris[t].c, tris[t].a)})
        ++edge_count[e];
    }
    for (const auto& [e, cnt] : edge_count)
      if (cnt == 1) boundary.push_back(e);
    // Re-triangulate the cavity.
    for (const Edge& e : boundary) {
      Tri t{e.first, e.second, i};
      ccw(t);
      tris.push_back(t);
    }
  }

  for (const auto& t : tris) {
    if (!t.alive) continue;
    if (t.a >= n || t.b >= n || t.c >= n) continue;  // Touches super-tri.
    triangles_.push_back(Triangle{{t.a, t.b, t.c}});
  }
}

bool DelaunayTriangulation::adjacent(int i, int j) const {
  for (const auto& t : triangles_)
    if (t.has_vertex(i) && t.has_vertex(j)) return true;
  return false;
}

std::vector<int> DelaunayTriangulation::neighbours(int i) const {
  std::vector<int> out;
  for (const auto& t : triangles_) {
    if (!t.has_vertex(i)) continue;
    for (int v : t.v)
      if (v != i) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int DelaunayTriangulation::locate(Vec2 q) const {
  for (std::size_t t = 0; t < triangles_.size(); ++t) {
    const auto& tri = triangles_[t];
    const Vec2 a = points_[tri.v[0]];
    const Vec2 b = points_[tri.v[1]];
    const Vec2 c = points_[tri.v[2]];
    constexpr double kEps = -1e-9;
    if (orient(a, b, q) >= kEps && orient(b, c, q) >= kEps &&
        orient(c, a, q) >= kEps)
      return static_cast<int>(t);
  }
  return -1;
}

std::array<double, 3> DelaunayTriangulation::barycentric(int t, Vec2 q) const {
  const auto& tri = triangles_.at(static_cast<std::size_t>(t));
  const Vec2 a = points_[tri.v[0]];
  const Vec2 b = points_[tri.v[1]];
  const Vec2 c = points_[tri.v[2]];
  const double area = orient(a, b, c);
  if (std::abs(area) < 1e-15) return {1.0, 0.0, 0.0};
  return {orient(b, c, q) / area, orient(c, a, q) / area,
          orient(a, b, q) / area};
}

}  // namespace isomap
