#include "isomap/node_selection.hpp"

#include <algorithm>
#include <cmath>

#include "exec/exec.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

/// Tile-block size of the parallel selection sweep. Per-node work is
/// O(levels + deg), so blocks this size amortise chunk handout while a
/// 10^6-node sweep still splits into ~500 blocks of parallel slack.
constexpr std::size_t kSelectTileBlock = 2048;

/// One tile block's selection output, filled by a pool worker. Entries
/// are in ascending node order within the block; blocks concatenated in
/// block order reproduce the serial sweep's entry order exactly.
struct SelectionBlock {
  std::vector<SelectionEntry> entries;
  std::size_t candidates = 0;
};

/// Shared parallel driver for both selection variants: evaluate(node,
/// out_entries) must be pure (no obs, no shared writes — it runs on pool
/// workers) and return the node's modelled ops; ops_per_node slots are
/// disjoint per node. The serial tail merges in block order: per-entry
/// trace events, the candidate total and the final entry vector come out
/// identical to the old single-thread sweep at any thread count.
template <typename EvaluateFn>
std::vector<SelectionEntry> select_over_blocks(
    const CommGraph& graph, std::vector<double>* ops_per_node,
    const EvaluateFn& evaluate) {
  const auto n = static_cast<std::size_t>(graph.size());
  if (ops_per_node) ops_per_node->assign(n, 0.0);

  const TileBlocks blocks{n, kSelectTileBlock};
  std::vector<SelectionBlock> per_block(blocks.count());
  exec::parallel_for_blocks(
      blocks, [&](std::size_t b, std::size_t begin, std::size_t end) {
        SelectionBlock& out = per_block[b];
        for (std::size_t u = begin; u < end; ++u) {
          const int node = static_cast<int>(u);
          if (!graph.alive(node)) continue;
          double ops = 0.0;
          out.candidates += evaluate(node, out.entries, ops);
          if (ops_per_node) (*ops_per_node)[u] = ops;
        }
      });

  std::size_t total = 0;
  for (const SelectionBlock& blk : per_block) total += blk.entries.size();
  std::vector<SelectionEntry> selected;
  selected.reserve(total);
  obs::TraceSink* const sink = obs::trace();
  std::size_t candidates = 0;
  for (const SelectionBlock& blk : per_block) {
    candidates += blk.candidates;
    for (const SelectionEntry& e : blk.entries) {
      selected.push_back(e);
      trace_selection(sink, e.node, e.isolevel);
    }
  }
  if (candidates > 0)
    obs::count("select.candidates", static_cast<double>(candidates));
  return selected;
}

/// Definition 3.1 for one node with border half-width `epsilon`:
/// appends the node's admitted (node, isolevel) entries and returns the
/// evaluator's ops and candidate count. Blocks run concurrently, so the
/// admitted-index scratch is thread_local: allocation-free across nodes
/// and private to each pool thread.
NodeSelectionResult select_node(const CommGraph& graph,
                                const std::vector<double>& readings, int node,
                                const std::vector<double>& levels,
                                double epsilon,
                                std::vector<SelectionEntry>& entries) {
  thread_local std::vector<int> admitted;
  const NodeSelectionResult result =
      evaluate_node_selection(graph, readings, node, levels, epsilon, admitted);
  for (int idx : admitted)
    entries.push_back({node, levels[static_cast<std::size_t>(idx)]});
  return result;
}

}  // namespace

void trace_selection(obs::TraceSink* sink, int node, double isolevel) {
  if (sink == nullptr) return;
  obs::TraceEvent event;
  event.kind = "note";
  event.phase = obs::kPhaseSelect;
  event.node = node;
  event.isolevel = isolevel;
  sink->emit(event);
}

bool is_candidate(double reading, double isolevel, double epsilon) {
  return std::abs(reading - isolevel) <= epsilon;
}

std::pair<int, int> level_rank(const std::vector<double>& levels, double v) {
  const auto lb = std::lower_bound(levels.begin(), levels.end(), v);
  const auto ub = std::upper_bound(levels.begin(), levels.end(), v);
  return {static_cast<int>(lb - levels.begin()),
          static_cast<int>(ub - levels.begin())};
}

NodeSelectionResult evaluate_node_selection(const CommGraph& graph,
                                            const std::vector<double>& readings,
                                            int node,
                                            const std::vector<double>& levels,
                                            double epsilon,
                                            std::vector<int>& admitted) {
  admitted.clear();
  NodeSelectionResult result;
  const double v = readings[static_cast<std::size_t>(node)];
  // The modelled charge covers the full per-level candidate scan a real
  // node performs; the banded window below is a simulator shortcut that
  // provably visits every candidate level (see the header comment).
  result.ops = static_cast<double>(levels.size());
  auto lo = std::lower_bound(levels.begin(), levels.end(), v - epsilon);
  auto hi = std::upper_bound(levels.begin(), levels.end(), v + epsilon);
  if (lo != levels.begin()) --lo;
  if (hi != levels.end()) ++hi;
  const auto neighbours = graph.neighbour_span(node);
  for (auto it = lo; it != hi; ++it) {
    const double lambda = *it;
    if (!is_candidate(v, lambda, epsilon)) continue;
    ++result.candidates;
    // Check the crossing condition against 1-hop neighbours.
    bool crossing = false;
    for (int nb : neighbours) {
      result.ops += 2.0;
      const double nv = readings[static_cast<std::size_t>(nb)];
      if ((v < lambda && lambda < nv) || (nv < lambda && lambda < v)) {
        crossing = true;
        break;
      }
    }
    if (crossing) admitted.push_back(static_cast<int>(it - levels.begin()));
  }
  return result;
}

bool is_isoline_node(double reading,
                     const std::vector<double>& neighbour_readings,
                     double isolevel, double epsilon) {
  if (!is_candidate(reading, isolevel, epsilon)) return false;
  for (double nv : neighbour_readings) {
    const bool crossing = (reading < isolevel && isolevel < nv) ||
                          (nv < isolevel && isolevel < reading);
    if (crossing) return true;
  }
  return false;
}

std::vector<SelectionEntry> select_isoline_nodes_adaptive(
    const CommGraph& graph, const Deployment& deployment,
    const std::vector<double>& readings, const ContourQuery& query,
    double strip_width, std::vector<double>* ops_per_node) {
  const auto levels = query.isolevels();
  return select_over_blocks(
      graph, ops_per_node,
      [&](int node, std::vector<SelectionEntry>& entries,
          double& out_ops) -> std::size_t {
        const double v = readings[static_cast<std::size_t>(node)];
        const Vec2 pos = deployment.node(node).pos;

        // Local slope estimate from the steepest 1-hop difference.
        double slope = 0.0;
        double ops = 0.0;
        for (int nb : graph.neighbour_span(node)) {
          ops += 4.0;
          const double dist = pos.distance_to(deployment.node(nb).pos);
          if (dist <= 1e-9) continue;
          slope = std::max(
              slope,
              std::abs(readings[static_cast<std::size_t>(nb)] - v) / dist);
        }
        const double eps = slope > 0.0 ? 0.5 * strip_width * slope
                                       : query.epsilon();

        // Definition 3.1 with the node's own epsilon. Every op is a small
        // integer in a double, so adding the slope loop's share after the
        // evaluator's is exact.
        const NodeSelectionResult result =
            select_node(graph, readings, node, levels, eps, entries);
        out_ops = result.ops + ops;
        return static_cast<std::size_t>(result.candidates);
      });
}

std::vector<SelectionEntry> select_isoline_nodes(
    const CommGraph& graph, const std::vector<double>& readings,
    const ContourQuery& query, std::vector<double>* ops_per_node) {
  const auto levels = query.isolevels();
  const double eps = query.epsilon();
  return select_over_blocks(
      graph, ops_per_node,
      [&](int node, std::vector<SelectionEntry>& entries,
          double& out_ops) -> std::size_t {
        const NodeSelectionResult result =
            select_node(graph, readings, node, levels, eps, entries);
        out_ops = result.ops;
        return static_cast<std::size_t>(result.candidates);
      });
}

}  // namespace isomap
