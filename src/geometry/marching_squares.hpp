#pragma once

#include <functional>
#include <vector>

#include "geometry/polyline.hpp"
#include "geometry/vec2.hpp"

namespace isomap {

/// A rectangular scalar sample grid for contour extraction: `value(ix, iy)`
/// gives the sample at world position (origin + (ix*dx, iy*dy)).
struct SampleGrid {
  int nx = 0;
  int ny = 0;
  Vec2 origin{};
  double dx = 1.0;
  double dy = 1.0;
  std::function<double(int, int)> value;

  Vec2 world(int ix, int iy) const {
    return origin + Vec2{ix * dx, iy * dy};
  }
};

/// Extract the isolines of `grid` at `isolevel` with the marching-squares
/// algorithm (linear interpolation on cell edges, ambiguous saddle cases
/// resolved by the cell-centre average). Segments are stitched into
/// polylines; chains that close on themselves are marked closed.
///
/// This provides the *ground-truth* isolines against which the paper's
/// Fig. 12 Hausdorff metric is computed, and the dense-field reference map
/// for the Fig. 10/11 accuracy metric.
std::vector<Polyline> marching_squares(const SampleGrid& grid,
                                       double isolevel);

}  // namespace isomap
