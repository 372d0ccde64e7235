#include "net/routing_tree.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/exec.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

namespace {

/// Nodes per parallel block of the parent pass.
constexpr std::size_t kNodesPerBlock = 4096;

}  // namespace

RoutingTree::RoutingTree(const CommGraph& graph, int sink_id)
    : sink_(sink_id) {
  const std::size_t n = static_cast<std::size_t>(graph.size());
  if (sink_id < 0 || static_cast<std::size_t>(sink_id) >= n ||
      !graph.alive(sink_id))
    throw std::invalid_argument("RoutingTree: invalid or dead sink");

  parent_.assign(n, -1);
  level_.assign(n, -1);

  // Levels are hop distances, so a plain BFS queue finds them whatever
  // order each level is visited in.
  {
    std::vector<int> queue;
    queue.reserve(n);
    queue.push_back(sink_id);
    level_[static_cast<std::size_t>(sink_id)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      const int next = level_[static_cast<std::size_t>(u)] + 1;
      for (int v : graph.neighbours(u)) {
        if (level_[static_cast<std::size_t>(v)] != -1) continue;
        level_[static_cast<std::size_t>(v)] = next;
        queue.push_back(v);
      }
    }
  }

  // Parent: the first neighbour in v's ascending slice one level closer
  // to the sink, i.e. the lowest-id node of the previous level that can
  // hear v. Each node reads its own slice and writes its own slot.
  exec::parallel_for_blocks(
      TileBlocks{n, kNodesPerBlock},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t v = begin; v < end; ++v) {
          const int up = level_[v] - 1;
          if (up < 0) continue;
          for (int u : graph.neighbours(static_cast<int>(v))) {
            if (level_[static_cast<std::size_t>(u)] == up) {
              parent_[v] = u;
              break;
            }
          }
        }
      });

  rebuild_indexes();
}

void RoutingTree::rebuild_indexes() {
  const std::size_t n = level_.size();
  depth_ = 0;
  reachable_count_ = 0;
  child_offsets_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (level_[v] < 0) continue;
    ++reachable_count_;
    depth_ = std::max(depth_, level_[v]);
    if (parent_[v] >= 0) ++child_offsets_[static_cast<std::size_t>(parent_[v])];
  }

  // Children: counting sort by parent. After the prefix sum each
  // offset is its parent's end; filling v in descending order walks every
  // cursor back to its start and leaves each child list ascending.
  for (std::size_t i = 1; i < n; ++i) child_offsets_[i] += child_offsets_[i - 1];
  if (n > 0) child_offsets_[n] = child_offsets_[n - 1];
  child_ids_.resize(static_cast<std::size_t>(child_offsets_[n]));
  for (std::size_t v = n; v-- > 0;) {
    const int p = parent_[v];
    if (p < 0) continue;
    child_ids_[static_cast<std::size_t>(
        --child_offsets_[static_cast<std::size_t>(p)])] = static_cast<int>(v);
  }

  // Post-order: counting sort by level, deepest level first (leaves
  // first), ascending id within a level for platform-independent
  // convergecast ordering.
  std::vector<int> cursor(static_cast<std::size_t>(depth_) + 2, 0);
  for (std::size_t v = 0; v < n; ++v)
    if (level_[v] >= 0)
      ++cursor[static_cast<std::size_t>(depth_ - level_[v]) + 1];
  for (std::size_t b = 1; b < cursor.size(); ++b) cursor[b] += cursor[b - 1];
  post_order_.resize(static_cast<std::size_t>(reachable_count_));
  for (std::size_t v = 0; v < n; ++v)
    if (level_[v] >= 0)
      post_order_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(depth_ - level_[v])]++)] =
          static_cast<int>(v);
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
    stack.assign(1, root);
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      // Already detached with an earlier root's subtree.
      if (level_[static_cast<std::size_t>(u)] < 0) continue;
      level_[static_cast<std::size_t>(u)] = -1;
      parent_[static_cast<std::size_t>(u)] = -1;
      for (int c : children(u)) stack.push_back(c);
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
      if (ledger != nullptr) ledger->transmit(p, o, kRepairAckBytes);
      report.bytes += kRepairAckBytes;
      ++report.reattached;
      progress = true;
    }
  }
  report.unreachable = report.orphaned - report.reattached;

  rebuild_indexes();
  if (obs::NodeTelemetry* t = obs::telemetry()) {
    const int n = static_cast<int>(level_.size());
    for (int v = 0; v < n; ++v)
      t->set_hops(v, level_[static_cast<std::size_t>(v)]);
  }
  return report;
}

}  // namespace isomap
