#include "geometry/marching_squares.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace isomap {
namespace {

/// Interpolate the crossing point on an edge between sample points p/q
/// with values vp/vq straddling the isolevel.
Vec2 lerp_cross(double isolevel, Vec2 p, double vp, Vec2 q, double vq) {
  const double denom = vq - vp;
  const double t = std::abs(denom) < 1e-300 ? 0.5 : (isolevel - vp) / denom;
  return p + (q - p) * std::clamp(t, 0.0, 1.0);
}

}  // namespace

std::vector<Polyline> marching_squares(const SampleGrid& grid,
                                       double isolevel) {
  if (grid.nx < 2 || grid.ny < 2 || !grid.value)
    throw std::invalid_argument("marching_squares: grid needs >= 2x2 samples");

  std::vector<Segment> segments;

  // Two-row value cache: grid.value is an indirect call (std::function),
  // and the cell loop reads every interior sample four times — once per
  // adjacent cell. Caching the current and next sample rows evaluates each
  // sample exactly once and turns the inner loop's corner reads into
  // unit-stride array loads. The cached value is the same double the
  // repeated evaluation produced (sampling is deterministic), so every
  // mask, crossing and emitted segment is bit-identical to the straight-
  // line per-cell reference (tests/oracles/marching_squares_reference).
  //
  // Per-row threshold bytes: ge_lo/ge_hi[ix] = (row value >= isolevel),
  // computed in their own branch-free passes the compiler vectorizes
  // (packed double compares), so the cell loop assembles each mask from
  // four byte loads instead of four double compares. The comparison per
  // corner is the very one the reference performs — same operands, same
  // predicate — so every mask is identical.
  std::vector<double> row_lo(static_cast<std::size_t>(grid.nx));
  std::vector<double> row_hi(static_cast<std::size_t>(grid.nx));
  std::vector<unsigned char> ge_lo(static_cast<std::size_t>(grid.nx));
  std::vector<unsigned char> ge_hi(static_cast<std::size_t>(grid.nx));
  const auto nxs = static_cast<std::size_t>(grid.nx);
  for (int ix = 0; ix < grid.nx; ++ix)
    row_lo[static_cast<std::size_t>(ix)] = grid.value(ix, 0);
  for (std::size_t i = 0; i < nxs; ++i)
    ge_lo[i] = static_cast<unsigned char>(row_lo[i] >= isolevel);

  for (int iy = 0; iy + 1 < grid.ny; ++iy) {
    if (iy > 0) {
      row_lo.swap(row_hi);  // Last row's top is this row's bottom.
      ge_lo.swap(ge_hi);
    }
    for (int ix = 0; ix < grid.nx; ++ix)
      row_hi[static_cast<std::size_t>(ix)] = grid.value(ix, iy + 1);
    for (std::size_t i = 0; i < nxs; ++i)
      ge_hi[i] = static_cast<unsigned char>(row_hi[i] >= isolevel);

    for (int ix = 0; ix + 1 < grid.nx; ++ix) {
      // Corner order: 0=(ix,iy) 1=(ix+1,iy) 2=(ix+1,iy+1) 3=(ix,iy+1).
      const auto u = static_cast<std::size_t>(ix);
      const double v0 = row_lo[u];
      const double v1 = row_lo[u + 1];
      const double v2 = row_hi[u + 1];
      const double v3 = row_hi[u];

      const int mask = static_cast<int>(ge_lo[u]) |
                       (static_cast<int>(ge_lo[u + 1]) << 1) |
                       (static_cast<int>(ge_hi[u + 1]) << 2) |
                       (static_cast<int>(ge_hi[u]) << 3);
      if (mask == 0 || mask == 15) continue;

      const Vec2 p0 = grid.world(ix, iy);
      const Vec2 p1 = grid.world(ix + 1, iy);
      const Vec2 p2 = grid.world(ix + 1, iy + 1);
      const Vec2 p3 = grid.world(ix, iy + 1);

      // Edge crossing points (bottom, right, top, left), each interpolated
      // only when the case below actually consumes it — non-saddle cases
      // need two of the four divisions, not all four.
      auto bottom = [&] { return lerp_cross(isolevel, p0, v0, p1, v1); };
      auto right = [&] { return lerp_cross(isolevel, p1, v1, p2, v2); };
      auto top = [&] { return lerp_cross(isolevel, p3, v3, p2, v2); };
      auto left = [&] { return lerp_cross(isolevel, p0, v0, p3, v3); };

      auto emit = [&](Vec2 a, Vec2 b) {
        if (a.distance_to(b) > 1e-12) segments.push_back({a, b});
      };

      switch (mask) {
        case 1: case 14: emit(left(), bottom()); break;
        case 2: case 13: emit(bottom(), right()); break;
        case 3: case 12: emit(left(), right()); break;
        case 4: case 11: emit(right(), top()); break;
        case 6: case 9:  emit(bottom(), top()); break;
        case 7: case 8:  emit(left(), top()); break;
        case 5: case 10: {
          // Saddle: disambiguate by the cell-centre average.
          const double centre = 0.25 * (v0 + v1 + v2 + v3);
          const bool centre_high = centre >= isolevel;
          if ((mask == 5) == centre_high) {
            emit(left(), top());
            emit(bottom(), right());
          } else {
            emit(left(), bottom());
            emit(right(), top());
          }
          break;
        }
        default: break;
      }
    }
  }

  // Stitch segments into chains via endpoint matching. Marching squares
  // produces exact shared endpoints on cell edges, so a tight tolerance
  // suffices.
  const double tol = 1e-7 * std::max(grid.dx, grid.dy);
  return stitch_segments(segments, tol);
}

}  // namespace isomap
