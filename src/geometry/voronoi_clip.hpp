#pragma once

// Per-cell clip step of the Voronoi construction. Internal to
// src/geometry: VoronoiDiagram's indexed build and the brute-force test
// oracle both feed candidates through these same functions, which is what
// keeps the two bitwise-identical.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "geometry/segment.hpp"
#include "geometry/vec2.hpp"
#include "geometry/voronoi.hpp"

namespace isomap::voronoi_detail {

struct TaggedLoop {
  std::vector<Vec2> vertices;
  std::vector<int> tags;  // tags[i] tags edge vertices[i] -> vertices[i+1].
};

/// Clip a convex tagged loop by a closed half-plane; the newly created edge
/// (lying on the clip line) gets `new_tag`.
inline TaggedLoop clip_tagged(const TaggedLoop& in, const HalfPlane& hp,
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

/// The bounding box as a CCW loop, every edge tagged kBoundaryTag.
inline TaggedLoop box_loop(double x0, double y0, double x1, double y1) {
  TaggedLoop loop;
  loop.vertices = {{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}};
  loop.tags = {kBoundaryTag, kBoundaryTag, kBoundaryTag, kBoundaryTag};
  return loop;
}

/// Squared distance from `si` to the loop's farthest vertex.
inline double farthest_vertex2(const TaggedLoop& loop, Vec2 si) {
  double far2 = 0.0;
  for (Vec2 v : loop.vertices) far2 = std::max(far2, (v - si).norm2());
  return far2;
}

/// Feed candidate j (arriving nearest-first) into cell i's clip loop.
/// Returns true when the cell's enumeration is finished: a duplicate site
/// ceded the cell, the remaining bisectors were pruned, or the loop
/// degenerated.
inline bool feed_candidate(const std::vector<Vec2>& sites, std::size_t i,
                           int j, TaggedLoop& loop, bool& duplicate) {
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
  loop = clip_tagged(
      loop, HalfPlane::closer_to(si, sites[static_cast<std::size_t>(j)]), j);
  return loop.vertices.size() < 3;
}

}  // namespace isomap::voronoi_detail
