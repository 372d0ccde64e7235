#include "net/comm_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <stdexcept>

#include "geometry/tile_grid.hpp"

namespace isomap {

CommGraph::CommGraph(const Deployment& deployment, double radio_range)
    : radio_range_(radio_range) {
  if (radio_range <= 0.0)
    throw std::invalid_argument("CommGraph: radio_range must be positive");
  const auto& nodes = deployment.nodes();
  const std::size_t n = nodes.size();
  alive_.resize(n);
  std::vector<Vec2> pos(n);
  for (std::size_t i = 0; i < n; ++i) {
    alive_[i] = nodes[i].alive ? 1 : 0;
    pos[i] = nodes[i].pos;
  }

  // Tile grid keyed by the radio range (tile extent >= range, so a 3x3
  // tile block covers every node within range). Tiles hold CSR-bucketed
  // alive-node indices; dead nodes are never bucketed.
  const FieldBounds b = deployment.bounds();
  const int cols =
      std::max(1, static_cast<int>(std::floor(b.width() / radio_range)));
  const int rows =
      std::max(1, static_cast<int>(std::floor(b.height() / radio_range)));
  const TileGrid grid(TileLayout{b.x0, b.y0, b.width() / cols,
                                 b.height() / rows, cols, rows},
                      pos, alive_);
  const TileLayout& layout = grid.layout();

  // Adjacency is built straight into CSR form with two passes over the
  // tile blocks: count each node's degree, prefix-sum the offsets, then
  // fill and sort each node's slice ascending. The sorted slice is
  // uniquely determined by the neighbour *set*, so the edge array is
  // bit-identical to the old per-node push_back + sort construction.
  const double range2 = radio_range * radio_range;
  csr_offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive_[i]) continue;
    const Vec2 p = pos[i];
    int count = 0;
    grid.for_each_in_block(
        layout.col_of(p.x), layout.row_of(p.y), [&](int j) {
          if (j == static_cast<int>(i)) return;
          if ((pos[static_cast<std::size_t>(j)] - p).norm2() <= range2)
            ++count;
        });
    csr_offsets_[i + 1] = count;
  }
  for (std::size_t i = 1; i <= n; ++i) csr_offsets_[i] += csr_offsets_[i - 1];
  csr_edges_.resize(static_cast<std::size_t>(csr_offsets_[n]));
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive_[i]) continue;
    const Vec2 p = pos[i];
    int* slice = csr_edges_.data() + csr_offsets_[i];
    int count = 0;
    grid.for_each_in_block(
        layout.col_of(p.x), layout.row_of(p.y), [&](int j) {
          if (j == static_cast<int>(i)) return;
          if ((pos[static_cast<std::size_t>(j)] - p).norm2() <= range2)
            slice[count++] = j;
        });
    std::sort(slice, slice + count);
  }
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
