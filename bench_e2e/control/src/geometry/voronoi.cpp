#include "geometry/voronoi.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "geometry/segment.hpp"

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

namespace {

struct TaggedLoop {
  std::vector<Vec2> vertices;
  std::vector<int> tags;  // tags[i] tags edge vertices[i] -> vertices[i+1].
};

/// Clip a convex tagged loop by a closed half-plane; the newly created edge
/// (lying on the clip line) gets `new_tag`.
TaggedLoop clip_tagged(const TaggedLoop& in, const HalfPlane& hp,
                       int new_tag) {
  TaggedLoop out;
  const std::size_t n = in.vertices.size();
  if (n < 3) return out;
  out.vertices.reserve(n + 2);
  out.tags.reserve(n + 2);
  constexpr double kEps = 1e-12;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 cur = in.vertices[i];
    const Vec2 nxt = in.vertices[(i + 1) % n];
    const int tag = in.tags[i];
    const double dc = hp.signed_excess(cur);
    const double dn = hp.signed_excess(nxt);
    const bool cur_in = dc <= kEps;
    const bool nxt_in = dn <= kEps;
    if (cur_in && nxt_in) {
      out.vertices.push_back(cur);
      out.tags.push_back(tag);
    } else if (cur_in && !nxt_in) {
      out.vertices.push_back(cur);
      out.tags.push_back(tag);
      const double t = dc / (dc - dn);
      out.vertices.push_back(cur + (nxt - cur) * t);
      out.tags.push_back(new_tag);
    } else if (!cur_in && nxt_in) {
      const double t = dc / (dc - dn);
      out.vertices.push_back(cur + (nxt - cur) * t);
      out.tags.push_back(tag);
    }
  }
  // Remove consecutive (near-)duplicate vertices, merging their edges; the
  // surviving vertex keeps the tag of the *second* edge when the first
  // degenerated to zero length.
  TaggedLoop clean;
  const std::size_t m = out.vertices.size();
  for (std::size_t i = 0; i < m; ++i) {
    const Vec2 v = out.vertices[i];
    if (!clean.vertices.empty() &&
        clean.vertices.back().distance_to(v) <= 1e-9) {
      clean.tags.back() = out.tags[i];
      continue;
    }
    clean.vertices.push_back(v);
    clean.tags.push_back(out.tags[i]);
  }
  while (clean.vertices.size() > 1 &&
         clean.vertices.front().distance_to(clean.vertices.back()) <= 1e-9) {
    clean.vertices.pop_back();
    clean.tags.pop_back();
  }
  if (clean.vertices.size() < 3) return {};
  return clean;
}

TaggedLoop box_loop(double x0, double y0, double x1, double y1) {
  TaggedLoop loop;
  loop.vertices = {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
  loop.tags = {kBoundaryTag, kBoundaryTag, kBoundaryTag, kBoundaryTag};
  return loop;
}

double farthest_vertex2(const TaggedLoop& loop, Vec2 si) {
  double far2 = 0.0;
  for (Vec2 v : loop.vertices) far2 = std::max(far2, (v - si).norm2());
  return far2;
}

/// Feed candidate j (arriving nearest-first) into cell i's clip loop.
/// Returns true when the cell's enumeration is finished: a duplicate site
/// ceded the cell, the remaining bisectors were pruned, or the loop
/// degenerated. Shared verbatim by both construction modes so they stay
/// bitwise-identical.
bool feed_candidate(const std::vector<Vec2>& sites, std::size_t i, int j,
                    TaggedLoop& loop, bool& duplicate) {
  if (static_cast<std::size_t>(j) == i) return false;
  const Vec2 si = sites[i];
  const double dij = sites[static_cast<std::size_t>(j)].distance_to(si);
  if (dij <= 1e-12) {
    // Exact duplicate site: the later-indexed one cedes the cell.
    if (static_cast<std::size_t>(j) < i) {
      duplicate = true;
      return true;
    }
    return false;
  }
  // Prune once the remaining bisectors cannot reach the cell: if
  // |s_j - s_i| / 2 exceeds the farthest cell vertex from s_i, the
  // bisector of (i, j) — and every farther one — lies outside the cell.
  if (dij * dij * 0.25 > farthest_vertex2(loop, si)) return true;
  loop = clip_tagged(loop, HalfPlane::closer_to(si, sites[static_cast<std::size_t>(j)]), j);
  return loop.vertices.size() < 3;
}

}  // namespace

VoronoiDiagram::VoronoiDiagram(std::vector<Vec2> sites, double x0, double y0,
                               double x1, double y1, VoronoiConstruction mode)
    : sites_(std::move(sites)),
      index_(sites_),
      x0_(x0),
      y0_(y0),
      x1_(x1),
      y1_(y1) {
  if (x1_ <= x0_ || y1_ <= y0_)
    throw std::invalid_argument("VoronoiDiagram: empty bounding box");
  cells_.resize(sites_.size());
  if (mode == VoronoiConstruction::kBruteForce)
    build_brute_force();
  else
    build_indexed();
}

void VoronoiDiagram::build_cell(std::size_t i,
                                const std::vector<int>& candidates) {
  TaggedLoop loop = box_loop(x0_, y0_, x1_, y1_);
  bool duplicate = false;
  for (int j : candidates)
    if (feed_candidate(sites_, i, j, loop, duplicate)) break;
  VoronoiCell& cell = cells_[i];
  cell.site = static_cast<int>(i);
  if (!duplicate) {
    cell.vertices = std::move(loop.vertices);
    cell.edge_tags = std::move(loop.tags);
  }
}

void VoronoiDiagram::build_brute_force() {
  // Original construction: for each cell, sort the entire site array by
  // distance and feed it through. O(n^2 log n); kept as the equivalence
  // oracle and the micro_hotpaths baseline.
  const std::size_t n = sites_.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2 si = sites_[i];
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const double da = (sites_[static_cast<std::size_t>(a)] - si).norm2();
      const double db = (sites_[static_cast<std::size_t>(b)] - si).norm2();
      return da < db || (da == db && a < b);
    });
    build_cell(i, order);
  }
}

void VoronoiDiagram::build_indexed() {
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
