#pragma once

#include <optional>
#include <vector>

#include "field/grid_field.hpp"
#include "geometry/polyline.hpp"
#include "net/channel.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"
#include "net/transmission_log.hpp"

namespace isomap {

/// The TinyDB contour-mapping baseline (Hellerstein et al., IPSN'03) in its
/// aggregate-free form, which the paper uses as the best-fidelity
/// comparator: sensor nodes sit on a regular grid, every node reports its
/// reading to the sink hop by hop with no aggregation, and the sink builds
/// the isobar map from the grid of received values, interpolating cells
/// whose nodes failed ("sink interpolation").
struct TinyDBOptions {
  /// Bytes per report: value + position, two bytes per parameter.
  double report_bytes = 6.0;
  /// Store-and-forward bookkeeping ops charged per forwarded report.
  double ops_per_forward = 4.0;
  /// Link layer (net/channel.hpp). With an impairment pipeline the
  /// per-report path latency is measured hop by hop.
  LinkOptions link;
  /// Record every forwarding transmission for MAC-layer replay studies.
  bool record_transmissions = false;
};

struct TinyDBResult {
  /// Sink-side reconstruction: a grid field over the deployment bounds.
  /// nullopt when no report reached the sink.
  std::optional<GridField> reconstruction;
  int reports_generated = 0;
  int reports_delivered = 0;
  double traffic_bytes = 0.0;

  /// TDMA convergecast bottleneck (sum over tree levels of the busiest
  /// node's transmitted bytes); see IsoMapResult::bottleneck_bytes.
  double bottleneck_bytes = 0.0;
  double latency_s(double kbps = 38.4) const {
    return bottleneck_bytes * 8.0 / (kbps * 1000.0);
  }

  /// Measured end-to-end report latency over the impaired pipeline (sum
  /// of per-hop ARQ completion times along each delivered report's path;
  /// first/last/mean over delivered reports). 0.0 when link.impair is
  /// unset.
  double e2e_first_latency_s = 0.0;
  double e2e_last_latency_s = 0.0;
  double e2e_mean_latency_s = 0.0;

  /// Forwarding transmissions (when TinyDBOptions::record_transmissions).
  TransmissionLog transmissions;

  /// Level classification against the reconstruction (0 when empty).
  /// TinyDB's isobar map is piecewise constant — each grid cell is
  /// represented by its node's value — so classification uses the nearest
  /// cell's value, which is what makes the paper's Fig. 10 TinyDB maps
  /// blocky at low density.
  int level_index(Vec2 p, const std::vector<double>& isolevels) const;

  /// Estimated isolines from the reconstruction (marching squares).
  std::vector<Polyline> isolines(double isolevel, int resolution = 0) const;
};

class TinyDBProtocol {
 public:
  /// Throws std::invalid_argument when `options.link` breaks a
  /// LinkOptions rule.
  explicit TinyDBProtocol(TinyDBOptions options = {});

  /// `readings` indexed by node id (only alive nodes are read). The
  /// deployment must be a Deployment::grid layout; the reconstruction maps
  /// grid cells back from node ids.
  TinyDBResult run(const Deployment& deployment,
                   const std::vector<double>& readings,
                   const RoutingTree& tree, Ledger& ledger) const;

 private:
  TinyDBOptions options_;
};

}  // namespace isomap
