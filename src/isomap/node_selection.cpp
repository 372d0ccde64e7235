#include "isomap/node_selection.hpp"

#include <algorithm>
#include <cmath>

#include "exec/exec.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

/// Tile-block size of the parallel selection sweep. Per-node work is
/// O(levels + deg), so blocks this size amortise chunk handout, while a
/// continuous round's dirty list of a few thousand nodes still splits
/// into several blocks per worker.
constexpr std::size_t kSelectTileBlock = 1024;

/// The block-parallel loop behind select_nodes and the adaptive sweep:
/// evaluate(node, admitted) must be pure (no obs, no shared writes — it
/// runs on pool workers) and return the node's NodeSelectionResult; ops
/// slots are disjoint per node. Blocks partition the ascending range, so
/// their outputs concatenated in block order are the serial sweep's.
template <typename EvaluateFn>
NodeSelections select_over_blocks(const CommGraph& graph,
                                  const std::vector<int>* nodes,
                                  std::span<double> ops,
                                  const EvaluateFn& evaluate) {
  const std::size_t count =
      nodes ? nodes->size() : static_cast<std::size_t>(graph.size());
  const TileBlocks blocks{count, kSelectTileBlock};
  std::vector<NodeSelections> per_block(blocks.count());
  exec::parallel_for_blocks(
      blocks, [&](std::size_t b, std::size_t begin, std::size_t end) {
        // Admitted-index scratch, allocation-free across nodes and
        // private to each pool thread.
        thread_local std::vector<int> admitted;
        NodeSelections& out = per_block[b];
        for (std::size_t i = begin; i < end; ++i) {
          const int node = nodes ? (*nodes)[i] : static_cast<int>(i);
          if (!graph.alive(node)) continue;
          const NodeSelectionResult result = evaluate(node, admitted);
          if (!ops.empty()) ops[static_cast<std::size_t>(node)] = result.ops;
          if (result.candidates == 0) continue;
          out.candidates += result.candidates;
          out.nodes.push_back(
              {node, result.candidates, static_cast<int>(admitted.size())});
          out.levels.insert(out.levels.end(), admitted.begin(),
                            admitted.end());
        }
      });

  NodeSelections merged;
  for (NodeSelections& blk : per_block) {
    merged.candidates += blk.candidates;
    merged.nodes.insert(merged.nodes.end(), blk.nodes.begin(),
                        blk.nodes.end());
    merged.levels.insert(merged.levels.end(), blk.levels.begin(),
                         blk.levels.end());
  }
  return merged;
}

/// The single-shot sweeps' serial tail: expand the records into
/// (node, isolevel) entries in ascending (node, level) order, with one
/// trace note per entry and the candidate total counted.
std::vector<SelectionEntry> to_entries(const NodeSelections& selections,
                                       const std::vector<double>& levels) {
  std::vector<SelectionEntry> selected;
  selected.reserve(selections.levels.size());
  obs::TraceSink* const sink = obs::trace();
  std::size_t off = 0;
  for (const NodeSelection& rec : selections.nodes) {
    for (int k = 0; k < rec.admitted; ++k) {
      const double lambda = levels[static_cast<std::size_t>(
          selections.levels[off++])];
      selected.push_back({rec.node, lambda});
      trace_selection(sink, rec.node, lambda);
    }
  }
  if (selections.candidates > 0)
    obs::count("select.candidates",
               static_cast<double>(selections.candidates));
  return selected;
}

/// `ops_per_node` zeroed to one slot per node, as the sweep's ops span.
std::span<double> zeroed_ops(const CommGraph& graph,
                             std::vector<double>* ops_per_node) {
  if (ops_per_node == nullptr) return {};
  ops_per_node->assign(static_cast<std::size_t>(graph.size()), 0.0);
  return *ops_per_node;
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

NodeSelections select_nodes(const CommGraph& graph,
                            const std::vector<double>& readings,
                            const std::vector<int>* nodes,
                            const std::vector<double>& levels, double epsilon,
                            std::span<double> ops) {
  return select_over_blocks(
      graph, nodes, ops, [&](int node, std::vector<int>& admitted) {
        return evaluate_node_selection(graph, readings, node, levels, epsilon,
                                       admitted);
      });
}

std::vector<SelectionEntry> select_isoline_nodes_adaptive(
    const CommGraph& graph, const Deployment& deployment,
    const std::vector<double>& readings, const ContourQuery& query,
    double strip_width, std::vector<double>* ops_per_node) {
  const auto levels = query.isolevels();
  const NodeSelections selections = select_over_blocks(
      graph, nullptr, zeroed_ops(graph, ops_per_node),
      [&](int node, std::vector<int>& admitted) {
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
        NodeSelectionResult result = evaluate_node_selection(
            graph, readings, node, levels, eps, admitted);
        result.ops += ops;
        return result;
      });
  return to_entries(selections, levels);
}

std::vector<SelectionEntry> select_isoline_nodes(
    const CommGraph& graph, const std::vector<double>& readings,
    const ContourQuery& query, std::vector<double>* ops_per_node) {
  const auto levels = query.isolevels();
  return to_entries(select_nodes(graph, readings, nullptr, levels,
                                 query.epsilon(),
                                 zeroed_ops(graph, ops_per_node)),
                    levels);
}

}  // namespace isomap
