#pragma once

#include <span>
#include <vector>

#include "geometry/vec2.hpp"

namespace isomap {

/// Geometry of a uniform tile grid over a rectangle: origin, per-axis
/// tile extents and tile counts. Kept separate from the bucket storage so
/// every spatial structure in the codebase (CommGraph's radio-range hash,
/// PointIndex's ~sqrt(n) query grid) can describe its own tiling exactly
/// — including the historical clamp-into-range coordinate mapping — and
/// share one CSR bucket implementation.
struct TileLayout {
  double x0 = 0.0, y0 = 0.0;  ///< Grid origin (lower-left corner).
  double tw = 1.0, th = 1.0;  ///< Tile width / height.
  int cols = 1, rows = 1;

  /// Column of x, clamped into [0, cols). Matches the int-cast semantics
  /// the pre-tiled structures used, so bucketing is bit-compatible.
  int col_of(double x) const {
    const int c = static_cast<int>((x - x0) / tw);
    return c < 0 ? 0 : (c >= cols ? cols - 1 : c);
  }
  int row_of(double y) const {
    const int r = static_cast<int>((y - y0) / th);
    return r < 0 ? 0 : (r >= rows ? rows - 1 : r);
  }
  int tile_count() const { return cols * rows; }
  int tile_index(int col, int row) const { return row * cols + col; }
};

/// 1-D tile partition of a flat index range [0, n): the analogue of this
/// file's 2-D TileLayout for the protocol's flat node-id-ordered tables.
/// Block b covers [b*block, min(n, (b+1)*block)) — a pure function of
/// (n, block), never of the thread count — so workers that each fill one
/// block's slots, merged serially in block order, reproduce the serial
/// item order bit for bit at any ISOMAP_THREADS. The last block may be
/// short; an empty range has zero blocks.
struct TileBlocks {
  std::size_t n = 0;      ///< Items partitioned.
  std::size_t block = 1;  ///< Items per block (>= 1).

  std::size_t count() const { return block == 0 ? 0 : (n + block - 1) / block; }
  std::size_t begin(std::size_t b) const { return b * block; }
  std::size_t end(std::size_t b) const {
    const std::size_t e = (b + 1) * block;
    return e < n ? e : n;
  }
};

/// CSR-bucketed uniform grid over a fixed point set: one flat item array
/// plus per-tile offsets, instead of a vector-of-vectors with one heap
/// allocation per occupied tile. Within a tile, items keep ascending
/// insertion (= point index) order — exactly the order per-tile push_back
/// produced — so queries that scan tiles observe identical sequences and
/// downstream consumers stay bitwise-identical.
///
/// Construction is two counting passes over the points (O(n + tiles)),
/// touching only the tile each point lands in; neighbourhood queries
/// (CommGraph edge discovery, PointIndex ring searches) then touch only
/// adjacent tiles.
class TileGrid {
 public:
  TileGrid() = default;

  /// Buckets point i at points[i] for every i with accept[i] != 0;
  /// `accept` may be empty to bucket every point.
  TileGrid(const TileLayout& layout, std::span<const Vec2> points,
           std::span<const unsigned char> accept = {});

  const TileLayout& layout() const { return layout_; }

  /// Items of the tile at (col, row), in ascending point-index order.
  std::span<const int> tile(int col, int row) const {
    const auto t = static_cast<std::size_t>(layout_.tile_index(col, row));
    return {items_.data() + offsets_[t], items_.data() + offsets_[t + 1]};
  }

  /// Every item, tile-major: tile 0's items, then tile 1's, and so on in
  /// tile_index order. The tiles of one row are adjacent, so a run of
  /// columns c0..c1 in row r is the single range
  /// [tile_begin(tile_index(c0, r)), tile_begin(tile_index(c1, r) + 1)).
  std::span<const int> items() const { return items_; }

  /// Position in items() of tile t's first item; tile_begin(tile_count())
  /// is item_count().
  std::size_t tile_begin(int t) const {
    return static_cast<std::size_t>(offsets_[static_cast<std::size_t>(t)]);
  }

  std::size_t item_count() const { return items_.size(); }

 private:
  TileLayout layout_;
  std::vector<int> offsets_;  ///< tile_count() + 1 entries.
  std::vector<int> items_;
};

}  // namespace isomap
