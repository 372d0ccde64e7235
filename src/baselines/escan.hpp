#pragma once

#include <vector>

#include "geometry/vec2.hpp"
#include "net/channel.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"

namespace isomap {

/// The eScan baseline (Zhao et al., WCNC'02): every node emits a
/// (VALUE, COVERAGE) tuple — VALUE a [min, max] attribute interval and
/// COVERAGE a polygonal (here: bounding-box) region — and intermediate
/// nodes aggregate tuples with adjacent coverage and overlapping value
/// ranges. Aggregation is polygon merging, whose worst case the paper
/// quotes as O(m^3) per sensor; we charge the measured merge work.
/// Traffic remains O(n).
struct EScanOptions {
  double tuple_bytes = 12.0;       ///< min, max, bbox(4) at 2 bytes each.
  double value_tolerance = 1.0;    ///< Max value-interval width after merge.
  double adjacency_distance = 2.0; ///< Coverage adjacency threshold.

  /// Link layer for the tuple convergecast (net/channel.hpp). A lost
  /// hop loses the whole outgoing tuple batch.
  LinkOptions link;
};

/// A (VALUE, COVERAGE) tuple as received by the sink.
struct EScanTuple {
  double vmin = 0.0, vmax = 0.0;
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  int count = 1;

  double mid() const { return (vmin + vmax) * 0.5; }
  bool contains(Vec2 p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }
};

struct EScanResult {
  int reports_generated = 0;
  int tuples_at_sink = 0;
  double traffic_bytes = 0.0;
  std::vector<EScanTuple> sink_tuples;

  /// Lossy-link accounting: hop batches that exhausted the ARQ and the
  /// tuples they carried (both 0 on a perfect channel).
  int batches_lost = 0;
  int tuples_lost = 0;
  /// Measured collection latency over the impaired pipeline (see
  /// InlrResult::collection_latency_s). 0.0 when link.impair is unset.
  double collection_latency_s = 0.0;

  /// Sink map: the estimate at p is the midpoint value of the smallest
  /// covering tuple (nearest coverage when none covers p); NaN when the
  /// sink received nothing.
  double estimated_value(Vec2 p) const;
  /// Level classification from the estimate (0 when empty).
  int level_index(Vec2 p, const std::vector<double>& isolevels) const;
};

class EScanProtocol {
 public:
  /// Throws std::invalid_argument when `options.link` breaks a
  /// LinkOptions rule.
  explicit EScanProtocol(EScanOptions options = {});

  EScanResult run(const Deployment& deployment,
                  const std::vector<double>& readings,
                  const RoutingTree& tree, Ledger& ledger) const;

 private:
  EScanOptions options_;
};

}  // namespace isomap
