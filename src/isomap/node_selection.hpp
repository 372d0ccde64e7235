#pragma once

#include <span>
#include <utility>
#include <vector>

#include "isomap/query.hpp"
#include "net/comm_graph.hpp"
#include "net/deployment.hpp"

namespace isomap {
namespace obs {
class TraceSink;
}

/// Outcome of the distributed isoline-node self-selection (Definition 3.1)
/// for one node and one isolevel.
struct SelectionEntry {
  int node = -1;
  double isolevel = 0.0;
};

/// Runs the two-step self-selection of Definition 3.1 over all alive nodes
/// given their sensed `readings` (indexed by node id):
///
///  1. A node is a *candidate* for isolevel lambda when its reading lies in
///     the border region [lambda - eps, lambda + eps].
///  2. A candidate becomes an *isoline node* when some alive neighbour q
///     has lambda strictly between the two readings.
///
/// Both steps use only the node's own reading and its 1-hop neighbours'
/// readings, so the per-node cost is O(levels + deg) — the constant
/// overhead the paper claims. `ops` (per node, if non-null) is charged
/// accordingly.
std::vector<SelectionEntry> select_isoline_nodes(
    const CommGraph& graph, const std::vector<double>& readings,
    const ContourQuery& query, std::vector<double>* ops_per_node = nullptr);

/// Adaptive-epsilon variant (extension; see DESIGN.md): instead of the
/// fixed border half-width epsilon = 0.05 T, each node sizes its border
/// region from the *local slope* so the spatial width of the selected
/// strip is ~`strip_width` everywhere:
///
///   epsilon_i = 0.5 * strip_width * max_j |v_i - v_j| / dist(i, j)
///
/// (maximum over 1-hop neighbours; falls back to the query epsilon when
/// the neighbourhood is flat). A steep area no longer under-selects and a
/// flat area no longer floods the border region — the trade the paper's
/// Section 5 epsilon discussion gestures at, automated. The crossing
/// condition (Def. 3.1 part 2) is unchanged: each node runs
/// evaluate_node_selection with its own epsilon, plus 4 ops per neighbour
/// for the slope estimate.
std::vector<SelectionEntry> select_isoline_nodes_adaptive(
    const CommGraph& graph, const Deployment& deployment,
    const std::vector<double>& readings, const ContourQuery& query,
    double strip_width, std::vector<double>* ops_per_node = nullptr);

/// Modelled cost and candidate count of one node's Definition 3.1
/// evaluation (the admitted level indices go to a caller-owned vector).
struct NodeSelectionResult {
  double ops = 0.0;    ///< Modelled arithmetic charge for the node.
  int candidates = 0;  ///< Levels whose ε-band contains the reading.
};

/// Evaluate Definition 3.1 for one node against every level: `admitted`
/// receives the indices (into `levels`, ascending) the node self-selects
/// for. select_nodes and the adaptive sweep run it at every node they
/// evaluate, so both engines produce identical entries, ops and
/// candidate counts by construction.
///
/// `levels` must be ascending (ContourQuery::isolevels() is). The level
/// loop runs over a banded candidate window located by binary search and
/// widened by one level per side; |reading - λ| <= ε stays the deciding
/// comparison for every level in the window, and the widening means a
/// borderline band-edge comparison can never be missed — the comparison
/// and the window arithmetic only disagree within rounding error of the
/// band edge, while any level outside the widened window sits a full
/// granularity beyond it. The admitted set, candidate count and modelled
/// ops are therefore exactly those of the full level scan.
NodeSelectionResult evaluate_node_selection(const CommGraph& graph,
                                            const std::vector<double>& readings,
                                            int node,
                                            const std::vector<double>& levels,
                                            double epsilon,
                                            std::vector<int>& admitted);

/// One node's Definition 3.1 outcome as select_nodes records it. Only
/// nodes with a candidate level get a record (every admitted level is a
/// candidate), so a sweep over 10^6 nodes records O(selected) nodes,
/// never one per node.
struct NodeSelection {
  int node = -1;
  int candidates = 0;  ///< Levels whose ε-band contains the reading.
  int admitted = 0;    ///< This node's run of NodeSelections::levels.
};

/// select_nodes' outcome: records in ascending node order, their admitted
/// level indices (into the level list, ascending per node) concatenated in
/// record order, and the records' summed candidate count.
struct NodeSelections {
  std::vector<NodeSelection> nodes;
  std::vector<int> levels;
  long long candidates = 0;
};

/// The Definition 3.1 node phase both engines run: evaluate_node_selection
/// at every alive node of an ascending node range — `*nodes` when non-null
/// (the continuous engine's dirty list), else every node of `graph` —
/// across the exec pool in fixed tile blocks, merged in block order, so
/// the outcome is that of the serial sweep at any thread count. `ops`,
/// when non-empty, is indexed by node and receives each evaluated node's
/// modelled ops; no other slot is written. Emits no obs events.
NodeSelections select_nodes(const CommGraph& graph,
                            const std::vector<double>& readings,
                            const std::vector<int>* nodes,
                            const std::vector<double>& levels, double epsilon,
                            std::span<double> ops);

/// Relation signature of a reading against the ascending level list:
/// (#levels < v, #levels <= v). Two readings with equal signatures
/// compare identically (<, ==, >) against every level — exactly the
/// predicates Definition 3.1's crossing test uses — so swapping one for
/// the other cannot change any neighbour's selection outcome. The
/// incremental continuous engine uses this to decide whether a changed
/// reading can affect Definition 3.1 at all.
std::pair<int, int> level_rank(const std::vector<double>& levels, double v);

/// Per-entry observability: one "note" event per (node, isolevel) the
/// self-selection admits, so a trace shows exactly which nodes joined
/// which isoline (the raw material of Fig. 9's report-density view).
/// No-op when `sink` is null. The selection sweeps above and the
/// continuous mapper both emit through it.
void trace_selection(obs::TraceSink* sink, int node, double isolevel);

/// Candidate test for a single node/level (step 1 only); exposed for tests.
bool is_candidate(double reading, double isolevel, double epsilon);

/// Full isoline-node test for one node/level given neighbour readings.
bool is_isoline_node(double reading, const std::vector<double>& neighbour_readings,
                     double isolevel, double epsilon);

}  // namespace isomap
