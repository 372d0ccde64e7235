#pragma once

#include <vector>

#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "util/rng.hpp"

namespace isomap {

/// DV-Hop localization (Niculescu & Nath) — one of the "existing
/// algorithms" the paper's Section 3.3 relies on for node positions when
/// GPS receivers are not attached. A small fraction of *anchor* nodes
/// know their position (GPS buoys); every other node estimates its
/// position from hop counts to the anchors:
///
///  1. Each anchor floods the network; every node learns its hop count
///     to every anchor.
///  2. Each anchor computes its *average hop length* from the known
///     anchor-to-anchor distances and hop counts, and floods it.
///  3. Each node converts hop counts into distance estimates using the
///     nearest anchor's hop length and trilaterates (least squares).
///
/// The result plugs into Node::believed, making Iso-Map's localization
/// error an emergent property of the network rather than injected noise.
struct DvHopOptions {
  double anchor_fraction = 0.04;  ///< Fraction of alive nodes with GPS.
  int min_anchors = 4;
  /// Bytes of one flood message (anchor id + position/hop-size + hops).
  double flood_bytes = 8.0;
  /// Gauss-Newton refinement iterations for the position solve.
  int solver_iterations = 16;
};

struct DvHopResult {
  std::vector<int> anchors;  ///< Node ids selected as anchors.
  /// Estimated positions, indexed by node id (anchors report their true
  /// position; unreachable/dead nodes keep their prior).
  std::vector<Vec2> estimated;
  /// Localization error per node (distance estimate-truth), -1 for
  /// anchors/dead nodes.
  std::vector<double> error;
  double mean_error = 0.0;
  double max_error = 0.0;
  double flood_traffic_bytes = 0.0;
};

/// Run DV-Hop over the alive nodes of `deployment`; flood traffic is
/// charged to `ledger` (every node rebroadcasts each anchor flood once).
DvHopResult dv_hop_localize(const Deployment& deployment,
                            const CommGraph& graph,
                            const DvHopOptions& options, Rng& rng,
                            Ledger& ledger);

/// Write the estimated positions into the deployment's `believed` fields
/// (non-anchor alive nodes only).
void apply_localization(Deployment& deployment, const DvHopResult& result);

}  // namespace isomap
