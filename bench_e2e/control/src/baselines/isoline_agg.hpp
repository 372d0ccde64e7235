#pragma once

#include <vector>

#include "geometry/point_index.hpp"
#include "geometry/polygon.hpp"
#include "geometry/polyline.hpp"
#include "isomap/query.hpp"
#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"

namespace isomap {

/// Isoline-aggregation baseline, modelled on Solis & Obraczka
/// (Mobiquitous'05), which the paper's related work credits with the
/// isoline-reporting idea but faults for not specifying "how the sink
/// recovers the isolines from the discrete reports": isoline nodes are
/// selected exactly as in Iso-Map (Definition 3.1) but report only
/// <isolevel, position> — *no gradient direction*. The sink reconstructs
/// each isoline by greedy nearest-neighbour chaining of the isopositions
/// and treats closed chains as contour-region boundaries.
///
/// Comparing this against Iso-Map isolates the value of the gradient
/// field d: without it the sink faces the paper's Fig. 4 ambiguity and
/// must guess how the isoline passes through the points.
struct IsolineAggOptions {
  ContourQuery query;         ///< Same query semantics as Iso-Map.
  double report_bytes = 6.0;  ///< <value, x, y>, two bytes each.
  /// Distance-only in-network filter (no angle available).
  double distance_separation = 4.0;
  bool enable_filtering = true;
  /// Sink chaining: points within this distance may be linked. Scales
  /// with the filter threshold by default (<= 0 means 2.5x separation).
  double link_radius = -1.0;

  double effective_link_radius() const {
    return link_radius > 0.0 ? link_radius : 2.5 * distance_separation;
  }
};

/// Sink-side reconstruction. Without gradients the sink cannot orient
/// region boundaries (most isolines are open curves crossing the field
/// border), so the fairest no-gradient classifier is value
/// interpolation: every isoposition carries its isolevel as a value
/// sample, and the field is estimated by inverse-distance weighting over
/// the k nearest samples; the level index is then derived from the
/// interpolated value. Chains (greedy nearest-neighbour linking, the
/// best the sink can do for isoline geometry) are kept for rendering and
/// Hausdorff comparison.
class IsolineAggMap {
 public:
  /// `sample_positions` / `sample_readings` are the flattened sink
  /// reports (positions with the reporting nodes' readings).
  IsolineAggMap(FieldBounds bounds, std::vector<double> isolevels,
                std::vector<std::vector<Polyline>> chains,
                std::vector<Vec2> sample_positions,
                std::vector<double> sample_readings);

  int level_count() const { return static_cast<int>(isolevels_.size()); }
  const std::vector<Polyline>& chains(int level) const {
    return chains_[static_cast<std::size_t>(level)];
  }

  /// IDW-interpolated value estimate at q (the isolevel of the single
  /// nearest sample when only one exists); NaN with no samples.
  double interpolated_value(Vec2 q) const;

  /// Level classification from the interpolated value; 0 with no samples.
  int level_index(Vec2 q) const;

 private:
  FieldBounds bounds_;
  std::vector<double> isolevels_;
  std::vector<std::vector<Polyline>> chains_;
  PointIndex samples_;
  std::vector<double> sample_values_;
};

struct IsolineAggResult {
  std::vector<std::vector<Vec2>> sink_points;  ///< Per isolevel.
  /// The reporting node's actual reading (the report's value field) for
  /// each sink point — readings straddle the isolevel, which is what
  /// lets the sink's interpolation tell the two sides apart.
  std::vector<std::vector<double>> sink_values;
  int generated_reports = 0;
  int delivered_reports = 0;
  double traffic_bytes = 0.0;
};

class IsolineAggProtocol {
 public:
  explicit IsolineAggProtocol(IsolineAggOptions options);

  IsolineAggResult run(const std::vector<double>& readings,
                       const Deployment& deployment, const CommGraph& graph,
                       const RoutingTree& tree, Ledger& ledger) const;

  /// Sink reconstruction from a result.
  IsolineAggMap build_map(const IsolineAggResult& result,
                          FieldBounds bounds) const;

 private:
  IsolineAggOptions options_;
};

/// Greedy nearest-neighbour chaining of a point set: starting from an
/// arbitrary unused point, repeatedly extend the chain tail to its
/// nearest unused point within `link_radius`; a chain whose two ends
/// fall within the radius is closed. Exposed for testing.
std::vector<Polyline> chain_points(const std::vector<Vec2>& points,
                                   double link_radius);

}  // namespace isomap
