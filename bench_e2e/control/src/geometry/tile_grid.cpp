#include "geometry/tile_grid.hpp"

#include <stdexcept>

namespace isomap {

TileGrid::TileGrid(const TileLayout& layout, std::span<const Vec2> points,
                   std::span<const unsigned char> accept)
    : layout_(layout) {
  if (layout.cols < 1 || layout.rows < 1 || layout.tw <= 0.0 ||
      layout.th <= 0.0)
    throw std::invalid_argument("TileGrid: degenerate layout");
  if (!accept.empty() && accept.size() != points.size())
    throw std::invalid_argument("TileGrid: accept mask size mismatch");

  const std::size_t tiles = static_cast<std::size_t>(layout.tile_count());
  offsets_.assign(tiles + 1, 0);

  // Pass 1: per-tile counts (offset by one so the prefix sum lands the
  // running cursor directly in offsets_[t]).
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!accept.empty() && accept[i] == 0) continue;
    const int t = layout_.tile_index(layout_.col_of(points[i].x),
                                     layout_.row_of(points[i].y));
    ++offsets_[static_cast<std::size_t>(t) + 1];
  }
  for (std::size_t t = 1; t <= tiles; ++t) offsets_[t] += offsets_[t - 1];

  // Pass 2: stable fill in ascending point order — the counting sort
  // preserves per-tile insertion order, matching per-tile push_back.
  items_.resize(static_cast<std::size_t>(offsets_[tiles]));
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!accept.empty() && accept[i] == 0) continue;
    const int t = layout_.tile_index(layout_.col_of(points[i].x),
                                     layout_.row_of(points[i].y));
    items_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(t)]++)] =
        static_cast<int>(i);
  }
}

}  // namespace isomap
