#include "net/comm_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>

#include "exec/exec.hpp"
#include "geometry/tile_grid.hpp"

namespace isomap {
namespace {

/// Tile rows per parallel block of the CSR passes. Each node writes only
/// its own offset and its own edge slice, so the partition (and the
/// thread count) never shows in the output.
constexpr std::size_t kTileRowsPerBlock = 4;

/// Tiles along one axis: as many range-wide tiles as fit, but at most
/// `cap`. Tiles wider than the range still put every neighbour inside the
/// 3x3 block, so the cap changes the scan, never the edges.
double tiles_along(double extent, double range, double cap) {
  return std::clamp(std::floor(extent / range), 1.0, cap);
}

/// The alive nodes in TileGrid item order (tile-major), with their
/// positions gathered once into the same order: the 3x3 tile block around
/// a node is then three contiguous runs, one per tile row, instead of
/// nine scattered tiles read through random position lookups.
struct TileScan {
  const TileGrid& grid;
  std::span<const int> ids;  ///< grid.items(): node id of each slot.
  std::vector<Vec2> pos;     ///< Position of each slot.
  double range2;

  /// Calls fn(j) for every node j within range of the node in slot k of
  /// tile (col, row), other than that node itself.
  template <typename Fn>
  void for_each_neighbour(int col, int row, std::size_t k, Fn&& fn) const {
    const TileLayout& l = grid.layout();
    const int c0 = std::max(col - 1, 0);
    const int c1 = std::min(col + 1, l.cols - 1);
    const int r0 = std::max(row - 1, 0);
    const int r1 = std::min(row + 1, l.rows - 1);
    const Vec2 p = pos[k];
    for (int r = r0; r <= r1; ++r) {
      const std::size_t end = grid.tile_begin(l.tile_index(c1, r) + 1);
      for (std::size_t m = grid.tile_begin(l.tile_index(c0, r)); m < end; ++m)
        if (m != k && (pos[m] - p).norm2() <= range2) fn(ids[m]);
    }
  }

  /// Calls fn(col, row, k) for every slot k, tile rows spread over the
  /// exec pool in fixed blocks.
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    const TileLayout& l = grid.layout();
    exec::parallel_for_blocks(
        TileBlocks{static_cast<std::size_t>(l.rows), kTileRowsPerBlock},
        [&](std::size_t, std::size_t row_begin, std::size_t row_end) {
          for (auto row = static_cast<int>(row_begin);
               row < static_cast<int>(row_end); ++row)
            for (int col = 0; col < l.cols; ++col) {
              const int t = l.tile_index(col, row);
              for (std::size_t k = grid.tile_begin(t);
                   k < grid.tile_begin(t + 1); ++k)
                fn(col, row, k);
            }
        });
  }
};

}  // namespace

CommGraph::CommGraph(const Deployment& deployment, double radio_range)
    : radio_range_(radio_range) {
  if (!std::isfinite(radio_range) || radio_range <= 0.0)
    throw std::invalid_argument(
        "CommGraph: radio_range must be finite and positive");
  const auto& nodes = deployment.nodes();
  const std::size_t n = nodes.size();
  alive_.resize(n);
  std::vector<Vec2> pos(n);
  std::size_t alive_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    alive_[i] = nodes[i].alive ? 1 : 0;
    alive_count += alive_[i];
    pos[i] = nodes[i].pos;
  }

  // Tile grid keyed by the radio range (tile extent >= range, so a 3x3
  // tile block covers every node within range), with at most one tile
  // per alive node so a tiny range cannot blow up the tile count. Tiles
  // hold CSR-bucketed alive-node indices; dead nodes are never bucketed.
  const FieldBounds b = deployment.bounds();
  const double cap = std::max(1.0, static_cast<double>(alive_count));
  double cols = tiles_along(b.width(), radio_range, cap);
  double rows = tiles_along(b.height(), radio_range, cap);
  if (cols * rows > cap) {
    const double shrink = std::sqrt(cap / (cols * rows));
    cols = std::max(1.0, std::floor(cols * shrink));
    rows = std::max(1.0, std::floor(rows * shrink));
  }
  const TileGrid grid(
      TileLayout{b.x0, b.y0, b.width() / cols, b.height() / rows,
                 static_cast<int>(cols), static_cast<int>(rows)},
      pos, alive_);
  TileScan scan{grid, grid.items(), {}, radio_range * radio_range};
  scan.pos.resize(scan.ids.size());
  for (std::size_t k = 0; k < scan.ids.size(); ++k)
    scan.pos[k] = pos[static_cast<std::size_t>(scan.ids[k])];
  std::vector<Vec2>().swap(pos);  // Freed before the CSR arrays: peak RSS.

  // Adjacency is built straight into CSR form with two passes over the
  // tile rows: count each node's degree, prefix-sum the offsets, then
  // fill and sort each node's slice ascending. The sorted slice is
  // uniquely determined by the neighbour *set*, so the edge array does
  // not depend on the scan order or the thread count.
  csr_offsets_.assign(n + 1, 0);
  scan.for_each_slot([&](int col, int row, std::size_t k) {
    int count = 0;
    scan.for_each_neighbour(col, row, k, [&](int) { ++count; });
    csr_offsets_[static_cast<std::size_t>(scan.ids[k]) + 1] = count;
  });
  for (std::size_t i = 1; i <= n; ++i) csr_offsets_[i] += csr_offsets_[i - 1];
  csr_edges_.resize(static_cast<std::size_t>(csr_offsets_[n]));
  scan.for_each_slot([&](int col, int row, std::size_t k) {
    int* slice =
        csr_edges_.data() + csr_offsets_[static_cast<std::size_t>(scan.ids[k])];
    int count = 0;
    scan.for_each_neighbour(col, row, k, [&](int j) { slice[count++] = j; });
    std::sort(slice, slice + count);
  });
}

double CommGraph::average_degree() const {
  long long total = 0;
  long long alive_count = 0;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (!alive_[i]) continue;
    ++alive_count;
    total += static_cast<long long>(degree(static_cast<int>(i)));
  }
  return alive_count ? static_cast<double>(total) / static_cast<double>(alive_count) : 0.0;
}

std::vector<int> CommGraph::k_hop_neighbours(int i, int k) const {
  std::vector<int> out;
  for (const auto& [node, dist] : k_hop_neighbours_with_distance(i, k))
    out.push_back(node);
  return out;
}

std::vector<std::pair<int, int>> CommGraph::k_hop_neighbours_with_distance(
    int i, int k) const {
  std::vector<std::pair<int, int>> out;
  if (i < 0 || static_cast<std::size_t>(i) >= alive_.size() ||
      !alive_[static_cast<std::size_t>(i)] || k <= 0)
    return out;
  // Epoch-stamped scratch reused across calls: the protocol runs one BFS
  // per isoline node, and a fresh O(n) dist vector per call dominated the
  // gradient-fit phase. The scratch is thread_local so concurrent bench
  // trials sharing a graph never race; stale stamps from other (smaller)
  // graphs can never equal a fresh epoch.
  struct Scratch {
    std::vector<std::uint32_t> stamp;  // Visited iff stamp[v] == epoch.
    std::vector<int> hop;
    std::vector<int> queue;            // Flat FIFO: head index + push_back.
    std::uint32_t epoch = 0;
  };
  thread_local Scratch s;
  const std::size_t n = alive_.size();
  if (s.stamp.size() < n) {
    s.stamp.resize(n, 0);
    s.hop.resize(n, 0);
  }
  if (++s.epoch == 0) {
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.epoch = 1;
  }
  s.queue.clear();
  s.stamp[static_cast<std::size_t>(i)] = s.epoch;
  s.hop[static_cast<std::size_t>(i)] = 0;
  s.queue.push_back(i);
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const int u = s.queue[head];
    if (s.hop[static_cast<std::size_t>(u)] >= k) continue;
    for (int v : neighbour_span(u)) {
      if (s.stamp[static_cast<std::size_t>(v)] == s.epoch) continue;
      s.stamp[static_cast<std::size_t>(v)] = s.epoch;
      s.hop[static_cast<std::size_t>(v)] = s.hop[static_cast<std::size_t>(u)] + 1;
      out.emplace_back(v, s.hop[static_cast<std::size_t>(v)]);
      s.queue.push_back(v);
    }
  }
  return out;
}

bool CommGraph::is_connected() const {
  int start = -1;
  int alive_count = 0;
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i]) {
      ++alive_count;
      if (start == -1) start = static_cast<int>(i);
    }
  }
  if (alive_count <= 1) return true;
  std::vector<bool> seen(alive_.size(), false);
  std::queue<int> queue;
  seen[static_cast<std::size_t>(start)] = true;
  queue.push(start);
  int reached = 1;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (int v : neighbour_span(u)) {
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = true;
      ++reached;
      queue.push(v);
    }
  }
  return reached == alive_count;
}

}  // namespace isomap
