#pragma once

#include <span>
#include <vector>

#include "geometry/tile_grid.hpp"
#include "geometry/vec2.hpp"

namespace isomap {

/// Uniform-grid nearest-neighbour index over a fixed point set. Sink-side
/// map classification performs one nearest-site query per raster pixel
/// (LevelRegion::contains), which is O(sites) naively; the index answers
/// it in ~O(1) for the roughly uniform isoposition sets the sink sees.
///
/// Cell contents live in one flat CSR array (TileGrid) rather than a
/// vector-of-vectors: building is two counting passes and queries walk
/// contiguous spans, so ring searches touch only adjacent tiles of one
/// cache-friendly array. Per-cell point order is identical to the old
/// per-cell push_back layout, keeping every query result bit-compatible.
///
/// The structure is immutable after construction. Queries anywhere in the
/// plane are valid (points outside the indexed bounding box fall back to
/// ring expansion from the nearest cell).
class PointIndex {
 public:
  /// Builds an index over `points` (may be empty; nearest() then returns
  /// -1). Duplicate points are allowed.
  explicit PointIndex(std::vector<Vec2> points);

  std::size_t size() const { return points_.size(); }
  const std::vector<Vec2>& points() const { return points_; }

  /// Index of the nearest point to q (lowest index wins ties); -1 when
  /// the set is empty.
  int nearest(Vec2 q) const;

  /// Indices of the nearest `k` points, closest first (fewer if the set
  /// is smaller).
  std::vector<int> k_nearest(Vec2 q, int k) const;

  /// All indices within `radius` of q (unsorted).
  std::vector<int> within(Vec2 q, double radius) const;

  /// Append (unsorted) all indices with r_lo < |p - q| <= r_hi to `out`;
  /// a negative r_lo includes points at distance exactly 0. Grid cells
  /// entirely inside the r_lo disc are skipped, so expanding-ring callers
  /// (VoronoiDiagram's candidate enumeration) never rescan the interior.
  void append_annulus(Vec2 q, double r_lo, double r_hi,
                      std::vector<int>& out) const;

  /// Edge length of the uniform grid cells (the natural first-ring radius
  /// for expanding searches).
  double cell_size() const { return cell_size_; }

 private:
  int cell_col(double x) const { return grid_.layout().col_of(x); }
  int cell_row(double y) const { return grid_.layout().row_of(y); }
  std::span<const int> cell(int col, int row) const {
    return grid_.tile(col, row);
  }

  std::vector<Vec2> points_;
  double min_x_ = 0.0, min_y_ = 0.0;
  double cell_size_ = 1.0;
  int cols_ = 1, rows_ = 1;
  TileGrid grid_;
};

}  // namespace isomap
