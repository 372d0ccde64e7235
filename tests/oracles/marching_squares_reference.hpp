#pragma once

// Oracle for marching_squares (src/geometry/marching_squares.hpp): the
// production kernel must reproduce this bit for bit.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "geometry/marching_squares.hpp"
#include "geometry/polyline.hpp"

namespace isomap::oracle {

/// Interpolate the crossing point on an edge between sample points p/q
/// with values vp/vq straddling the isolevel.
inline Vec2 lerp_cross(double isolevel, Vec2 p, double vp, Vec2 q,
                       double vq) {
  const double denom = vq - vp;
  const double t = std::abs(denom) < 1e-300 ? 0.5 : (isolevel - vp) / denom;
  return p + (q - p) * std::clamp(t, 0.0, 1.0);
}

/// Straight-line reference implementation: evaluates every corner sample
/// per cell (no row cache) and every edge crossing per cell (no laziness).
inline std::vector<Polyline> marching_squares_reference(
    const SampleGrid& grid, double isolevel) {
  if (grid.nx < 2 || grid.ny < 2 || !grid.value)
    throw std::invalid_argument("marching_squares: grid needs >= 2x2 samples");

  std::vector<Segment> segments;

  for (int iy = 0; iy + 1 < grid.ny; ++iy) {
    for (int ix = 0; ix + 1 < grid.nx; ++ix) {
      // Corner order: 0=(ix,iy) 1=(ix+1,iy) 2=(ix+1,iy+1) 3=(ix,iy+1).
      const Vec2 p0 = grid.world(ix, iy);
      const Vec2 p1 = grid.world(ix + 1, iy);
      const Vec2 p2 = grid.world(ix + 1, iy + 1);
      const Vec2 p3 = grid.world(ix, iy + 1);
      const double v0 = grid.value(ix, iy);
      const double v1 = grid.value(ix + 1, iy);
      const double v2 = grid.value(ix + 1, iy + 1);
      const double v3 = grid.value(ix, iy + 1);

      int mask = 0;
      if (v0 >= isolevel) mask |= 1;
      if (v1 >= isolevel) mask |= 2;
      if (v2 >= isolevel) mask |= 4;
      if (v3 >= isolevel) mask |= 8;
      if (mask == 0 || mask == 15) continue;

      // Edge crossing points (bottom, right, top, left), all computed.
      const Vec2 bottom = lerp_cross(isolevel, p0, v0, p1, v1);
      const Vec2 right = lerp_cross(isolevel, p1, v1, p2, v2);
      const Vec2 top = lerp_cross(isolevel, p3, v3, p2, v2);
      const Vec2 left = lerp_cross(isolevel, p0, v0, p3, v3);

      auto emit = [&](Vec2 a, Vec2 b) {
        if (a.distance_to(b) > 1e-12) segments.push_back({a, b});
      };

      switch (mask) {
        case 1: case 14: emit(left, bottom); break;
        case 2: case 13: emit(bottom, right); break;
        case 3: case 12: emit(left, right); break;
        case 4: case 11: emit(right, top); break;
        case 6: case 9:  emit(bottom, top); break;
        case 7: case 8:  emit(left, top); break;
        case 5: case 10: {
          // Saddle: disambiguate by the cell-centre average.
          const double centre = 0.25 * (v0 + v1 + v2 + v3);
          const bool centre_high = centre >= isolevel;
          if ((mask == 5) == centre_high) {
            emit(left, top);
            emit(bottom, right);
          } else {
            emit(left, bottom);
            emit(right, top);
          }
          break;
        }
        default: break;
      }
    }
  }

  const double tol = 1e-7 * std::max(grid.dx, grid.dy);
  return stitch_segments(segments, tol);
}

}  // namespace isomap::oracle
