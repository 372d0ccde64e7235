#pragma once

#include <span>
#include <utility>
#include <vector>

#include "net/deployment.hpp"

namespace isomap {

/// Unit-disc communication graph over the alive nodes of a deployment:
/// two alive nodes are neighbours iff their distance is <= radio_range.
/// Built with a uniform tile grid keyed by the radio range (cell size >=
/// range), so edge discovery touches only the 3x3 tile block around each
/// node and construction is O(n) for the unit-density deployments the
/// paper simulates. Nodes are scanned in tile order, tile rows spread
/// over the exec pool; the result is the same at any thread count.
///
/// Adjacency is stored directly in CSR form: one flat edge array plus
/// per-node offsets, with neighbour ids ascending within each node's
/// slice. There is no per-node vector-of-vectors mirror — at 10^6 nodes
/// the million tiny heap allocations and 24-byte vector headers were the
/// dominant construction cost, and the flat layout is what the selection
/// and regression hot loops want to stream over anyway.
class CommGraph {
 public:
  /// Throws std::invalid_argument unless radio_range is finite and > 0.
  CommGraph(const Deployment& deployment, double radio_range);

  double radio_range() const { return radio_range_; }
  int size() const { return static_cast<int>(alive_.size()); }

  /// Neighbour ids of node i, ascending (empty for dead nodes). A view
  /// into the shared CSR edge array; invalidated only by destroying the
  /// graph (the graph is immutable after construction).
  std::span<const int> neighbours(int i) const { return neighbour_span(i); }

  /// CSR view of node i's neighbour list: a contiguous slice of one flat
  /// edge array shared by the whole graph. The flat layout keeps the
  /// per-node selection and regression loops on one cache-friendly array.
  std::span<const int> neighbour_span(int i) const {
    const auto u = static_cast<std::size_t>(i);
    return {csr_edges_.data() + csr_offsets_[u],
            csr_edges_.data() + csr_offsets_[u + 1]};
  }

  /// CSR arrays: offsets_[i]..offsets_[i+1] indexes node i's slice of the
  /// flat edge array (offsets has size() + 1 entries).
  const std::vector<int>& csr_offsets() const { return csr_offsets_; }
  const std::vector<int>& csr_edges() const { return csr_edges_; }

  int degree(int i) const {
    const auto u = static_cast<std::size_t>(i);
    return csr_offsets_[u + 1] - csr_offsets_[u];
  }

  /// Mean degree over alive nodes (0 if none).
  double average_degree() const;

  /// Nodes within k hops of i, excluding i itself (BFS over alive nodes).
  std::vector<int> k_hop_neighbours(int i, int k) const;

  /// As k_hop_neighbours, but each entry carries its hop distance from i.
  std::vector<std::pair<int, int>> k_hop_neighbours_with_distance(int i,
                                                                  int k) const;

  /// True if all alive nodes are mutually reachable.
  bool is_connected() const;

  bool alive(int i) const { return alive_[static_cast<std::size_t>(i)] != 0; }

 private:
  double radio_range_;
  /// CSR adjacency: csr_edges_ concatenates the per-node neighbour lists
  /// in node order; csr_offsets_[i] is node i's start.
  std::vector<int> csr_offsets_;
  std::vector<int> csr_edges_;
  std::vector<unsigned char> alive_;
};

}  // namespace isomap
