#pragma once

#include <vector>

#include "geometry/vec2.hpp"
#include "net/channel.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"

namespace isomap {

/// The INLR baseline (Xue et al., SIGMOD'06): every node reports, and
/// intermediate nodes aggregate reports into contour *regions*, each
/// described by a numerical (linear) data model over its bounding box.
/// Aggregation compares candidate region pairs by numerically integrating
/// the squared difference of their models over the overlap area — the
/// "multiple integrals" per intermediate node the paper cites as INLR's
/// computational burden. Traffic stays O(n) (every node sources a report;
/// aggregation shrinks but does not bound the flow), while per-node
/// computation grows with network size (Theta(n^1.5) network-wide).
struct InlrOptions {
  /// Bytes per region summary: model coefficients (3), bbox (4), count (1),
  /// two bytes per parameter.
  double region_bytes = 16.0;
  /// Model-similarity threshold for merging, in attribute units: regions
  /// merge when the RMS difference of their models over the joint bbox is
  /// below this value.
  double merge_threshold = 0.5;
  /// Only regions whose bounding boxes are within this distance merge.
  double adjacency_distance = 3.0;
  /// Evaluation grid (g x g points) used to *estimate* the model
  /// difference; kept coarse so the simulation itself stays fast.
  int integration_grid = 4;
  /// Spatial step of the fixed-resolution numerical integration whose cost
  /// is *charged* to the node: comparing two regions costs
  /// ~(bbox area / step^2) operations, so comparisons between large
  /// regions near the sink are expensive — the source of INLR's growing
  /// per-node computation (Fig. 15).
  double integration_step = 1.0;

  /// Link layer for the region convergecast (net/channel.hpp). A lost
  /// hop loses the whole outgoing region batch.
  LinkOptions link;
};

/// A contour-region summary as received by the sink: the linear data
/// model v = c0 + c1 x + c2 y over an axis-aligned bounding box, plus the
/// number of aggregated source reports.
struct InlrRegion {
  double c0 = 0.0, c1 = 0.0, c2 = 0.0;
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  int count = 1;

  double model(Vec2 p) const { return c0 + c1 * p.x + c2 * p.y; }
  Vec2 center() const {
    return {(min_x + max_x) * 0.5, (min_y + max_y) * 0.5};
  }
  bool contains(Vec2 p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
};

struct InlrResult {
  int reports_generated = 0;      ///< One per alive reachable node.
  int regions_at_sink = 0;        ///< Aggregated regions the sink receives.
  double traffic_bytes = 0.0;
  std::vector<InlrRegion> sink_regions;

  /// Lossy-link accounting: hop batches that exhausted the ARQ, and the
  /// region summaries they carried (both 0 on a perfect channel).
  int batches_lost = 0;
  int regions_lost = 0;
  /// Measured collection latency over the impaired pipeline: the virtual
  /// time when the last region batch reached the sink (per-node arrival
  /// time = max over children of child arrival + hop ARQ completion).
  /// 0.0 when link.impair is unset.
  double collection_latency_s = 0.0;

  /// Sink map reconstruction: the field estimate at q is the model of the
  /// containing region (smallest if nested; nearest bbox when none
  /// contains q). NaN when the sink received nothing.
  double estimated_value(Vec2 p) const;
  /// Level classification from the estimate (0 when empty).
  int level_index(Vec2 p, const std::vector<double>& isolevels) const;
};

class InlrProtocol {
 public:
  /// Throws std::invalid_argument when `options.link` breaks a
  /// LinkOptions rule.
  explicit InlrProtocol(InlrOptions options = {});

  InlrResult run(const Deployment& deployment,
                 const std::vector<double>& readings, const RoutingTree& tree,
                 Ledger& ledger) const;

 private:
  InlrOptions options_;
};

}  // namespace isomap
