#include "net/routing_tree.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

RoutingTree::RoutingTree(const CommGraph& graph, int sink_id)
    : sink_(sink_id) {
  const std::size_t n = static_cast<std::size_t>(graph.size());
  if (sink_id < 0 || static_cast<std::size_t>(sink_id) >= n ||
      !graph.alive(sink_id))
    throw std::invalid_argument("RoutingTree: invalid or dead sink");

  parent_.assign(n, -1);
  level_.assign(n, -1);
  children_.assign(n, {});

  // Level-synchronous BFS over a frontier kept in ascending id order:
  // a node discovered by several frontier members gets the lowest-id one
  // as its parent (CommGraph adjacency is sorted, frontier is sorted, and
  // the first discoverer wins), making parent selection deterministic.
  std::vector<int> frontier{sink_id};
  level_[static_cast<std::size_t>(sink_id)] = 0;
  while (!frontier.empty()) {
    std::vector<int> next;
    for (int u : frontier) {
      for (int v : graph.neighbours(u)) {
        if (level_[static_cast<std::size_t>(v)] != -1) continue;
        level_[static_cast<std::size_t>(v)] =
            level_[static_cast<std::size_t>(u)] + 1;
        parent_[static_cast<std::size_t>(v)] = u;
        children_[static_cast<std::size_t>(u)].push_back(v);
        next.push_back(v);
      }
    }
    std::sort(next.begin(), next.end());
    frontier = std::move(next);
  }

  rebuild_order();
}

void RoutingTree::rebuild_order() {
  post_order_.clear();
  depth_ = 0;
  reachable_count_ = 0;
  for (std::size_t i = 0; i < level_.size(); ++i) {
    if (level_[i] < 0) continue;
    ++reachable_count_;
    depth_ = std::max(depth_, level_[i]);
    post_order_.push_back(static_cast<int>(i));
  }
  // Leaves first; ascending id within a level for platform-independent
  // convergecast ordering.
  std::sort(post_order_.begin(), post_order_.end(), [this](int a, int b) {
    const int la = level_[static_cast<std::size_t>(a)];
    const int lb = level_[static_cast<std::size_t>(b)];
    return la != lb ? la > lb : a < b;
  });
}

std::vector<int> RoutingTree::path_to_sink(int i) const {
  std::vector<int> path;
  if (i < 0 || static_cast<std::size_t>(i) >= level_.size() ||
      level_[static_cast<std::size_t>(i)] < 0)
    return path;
  for (int u = i; u != -1; u = parent_[static_cast<std::size_t>(u)])
    path.push_back(u);
  return path;
}

RoutingTree::RepairReport RoutingTree::repair(const CommGraph& graph,
                                              const std::vector<char>& alive,
                                              Ledger* ledger) {
  const std::size_t n = level_.size();
  if (alive.size() != n)
    throw std::invalid_argument("RoutingTree::repair: alive mask size");
  if (!alive[static_cast<std::size_t>(sink_)])
    throw std::invalid_argument("RoutingTree::repair: sink is dead");

  RepairReport report;

  // Detach every dead node still in the tree, together with its whole
  // subtree: once the parent link is gone, every descendant's path to the
  // sink is broken and its level is stale.
  std::vector<int> detach_roots;
  for (std::size_t i = 0; i < n; ++i) {
    if (level_[i] >= 0 && !alive[i]) detach_roots.push_back(static_cast<int>(i));
  }
  if (detach_roots.empty()) return report;

  std::vector<int> orphans;  // Alive detached nodes, by detach order.
  std::vector<int> stack;
  for (int root : detach_roots) {
    if (level_[static_cast<std::size_t>(root)] < 0) continue;  // Already done.
    // Unlink the subtree root from its surviving parent.
    const int p = parent_[static_cast<std::size_t>(root)];
    if (p >= 0) {
      auto& siblings = children_[static_cast<std::size_t>(p)];
      siblings.erase(std::remove(siblings.begin(), siblings.end(), root),
                     siblings.end());
    }
    stack.assign(1, root);
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      level_[static_cast<std::size_t>(u)] = -1;
      parent_[static_cast<std::size_t>(u)] = -1;
      for (int c : children_[static_cast<std::size_t>(u)]) stack.push_back(c);
      children_[static_cast<std::size_t>(u)].clear();
      if (alive[static_cast<std::size_t>(u)]) orphans.push_back(u);
    }
  }
  std::sort(orphans.begin(), orphans.end());
  report.orphaned = static_cast<int>(orphans.size());

  // Every orphan announces itself once with a repair beacon heard by its
  // alive neighbours (paid whether or not the repair succeeds).
  if (ledger != nullptr) {
    std::vector<int> hearers;
    for (int o : orphans) {
      hearers.clear();
      for (int nb : graph.neighbours(o))
        if (alive[static_cast<std::size_t>(nb)]) hearers.push_back(nb);
      ledger->broadcast(o, hearers, kRepairBeaconBytes);
    }
  }
  report.bytes += kRepairBeaconBytes * static_cast<double>(orphans.size());

  // Re-attachment in beacon waves: in each wave every still-detached
  // orphan looks for its best alive, already-attached neighbour (lowest
  // level, then lowest id); all attachments of a wave are applied
  // together, so an orphan can attach through a neighbour repaired in an
  // *earlier* wave but not the current one. Waves repeat until no orphan
  // makes progress; the rest are unreachable.
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<std::pair<int, int>> joins;  // (orphan, new parent).
    for (int o : orphans) {
      if (level_[static_cast<std::size_t>(o)] >= 0) continue;  // Done.
      int best = -1;
      int best_level = -1;
      for (int nb : graph.neighbours(o)) {
        if (!alive[static_cast<std::size_t>(nb)]) continue;
        const int lvl = level_[static_cast<std::size_t>(nb)];
        if (lvl < 0) continue;  // Detached or never reachable.
        if (best == -1 || lvl < best_level || (lvl == best_level && nb < best)) {
          best = nb;
          best_level = lvl;
        }
      }
      if (best >= 0) joins.emplace_back(o, best);
    }
    for (const auto& [o, p] : joins) {
      parent_[static_cast<std::size_t>(o)] = p;
      level_[static_cast<std::size_t>(o)] =
          level_[static_cast<std::size_t>(p)] + 1;
      children_[static_cast<std::size_t>(p)].push_back(o);
      if (ledger != nullptr) ledger->transmit(p, o, kRepairAckBytes);
      report.bytes += kRepairAckBytes;
      ++report.reattached;
      progress = true;
    }
  }
  report.unreachable = report.orphaned - report.reattached;

  rebuild_order();
  if (obs::NodeTelemetry* t = obs::telemetry()) {
    const int n = static_cast<int>(level_.size());
    for (int v = 0; v < n; ++v)
      t->set_hops(v, level_[static_cast<std::size_t>(v)]);
  }
  return report;
}

}  // namespace isomap
