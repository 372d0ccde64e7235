#pragma once

#include <span>
#include <vector>

#include "net/comm_graph.hpp"
#include "net/ledger.hpp"

namespace isomap {

/// TAG-style spanning tree rooted at the sink, built by BFS over the
/// communication graph: each node's level is its hop count from the sink
/// and its parent is one level lower (Madden et al., OSDI'02 — the routing
/// substrate the paper assumes in Section 3.1).
///
/// Construction is fully deterministic: a node with several
/// minimum-level neighbours always picks the lowest-id one as its parent,
/// the node that would discover it first in a level-synchronous BFS whose
/// frontier runs in ascending id order. Repairs (below) follow the same
/// tie-break, which keeps fault runs reproducible across platforms,
/// standard-library implementations and thread counts.
class RoutingTree {
 public:
  RoutingTree(const CommGraph& graph, int sink_id);

  int sink() const { return sink_; }

  /// Node count of the graph the tree spans (reachable or not).
  int size() const { return static_cast<int>(level_.size()); }

  /// Parent id, or -1 for the sink and for unreachable/dead nodes.
  int parent(int i) const { return parent_[static_cast<std::size_t>(i)]; }

  /// Hop distance from the sink; -1 if unreachable.
  int level(int i) const { return level_[static_cast<std::size_t>(i)]; }

  bool reachable(int i) const { return level_[static_cast<std::size_t>(i)] >= 0; }

  /// Children of node i, ascending: a slice of one flat array shared by
  /// the whole tree, invalidated by repair().
  std::span<const int> children(int i) const {
    const auto u = static_cast<std::size_t>(i);
    return {child_ids_.data() + child_offsets_[u],
            child_ids_.data() + child_offsets_[u + 1]};
  }

  /// Maximum level over reachable nodes (the network diameter from the
  /// sink's perspective).
  int depth() const { return depth_; }

  /// Count of reachable nodes (including the sink).
  int reachable_count() const { return reachable_count_; }

  /// Reachable node ids ordered by decreasing level (leaves first,
  /// ascending id within a level); this is the order in which the
  /// convergecast / in-network filtering pass processes nodes.
  const std::vector<int>& post_order() const { return post_order_; }

  /// Hop path from node i to the sink (starting at i, ending at sink);
  /// empty if unreachable (or i is out of range).
  std::vector<int> path_to_sink(int i) const;

  /// Outcome of one self-healing pass.
  struct RepairReport {
    int orphaned = 0;     ///< Alive nodes detached by the crash(es).
    int reattached = 0;   ///< Orphans that found a new parent.
    int unreachable = 0;  ///< Orphans left without any route to the sink.
    double bytes = 0.0;   ///< Repair-beacon + ack bytes charged.
  };

  /// Bytes of one repair beacon broadcast (an orphan announcing it needs
  /// a parent) and of the chosen parent's acknowledgement.
  static constexpr double kRepairBeaconBytes = 4.0;
  static constexpr double kRepairAckBytes = 2.0;

  /// Self-heal after node deaths. `alive[id]` gives the authoritative
  /// liveness (size must match the graph); any tree node now dead is
  /// removed and its subtree detached. Each detached alive node
  /// broadcasts one repair beacon to its alive neighbours and re-attaches
  /// to the lowest-level already-attached alive neighbour (ties broken by
  /// lowest id), which answers with an ack; re-attachment proceeds in
  /// beacon waves so an orphan may attach through a just-repaired
  /// neighbour. Orphans with no surviving route stay unreachable
  /// (level -1). All charges go to `ledger` when non-null. The sink must
  /// still be alive.
  RepairReport repair(const CommGraph& graph, const std::vector<char>& alive,
                      Ledger* ledger = nullptr);

 private:
  /// Rebuild children, post-order, depth and reachable count from
  /// parent_ and level_.
  void rebuild_indexes();

  int sink_;
  std::vector<int> parent_;
  std::vector<int> level_;
  /// Children CSR: child_ids_[child_offsets_[i] .. child_offsets_[i+1]).
  std::vector<int> child_offsets_;
  std::vector<int> child_ids_;
  std::vector<int> post_order_;
  int depth_ = 0;
  int reachable_count_ = 0;
};

}  // namespace isomap
