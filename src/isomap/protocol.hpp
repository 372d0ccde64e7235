#pragma once

#include <optional>
#include <vector>

#include "energy/mica2.hpp"
#include "fault/fault.hpp"
#include "isomap/contour_map.hpp"
#include "isomap/filter.hpp"
#include "isomap/node_selection.hpp"
#include "isomap/query.hpp"
#include "isomap/report.hpp"
#include "net/channel.hpp"
#include "net/deployment.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"
#include "net/transmission_log.hpp"

namespace isomap {

/// Protocol configuration beyond the query itself.
struct IsoMapOptions {
  ContourQuery query;
  RegulationMode regulation = RegulationMode::kRules;

  /// Charge the local-measurement exchange (the isoline node's probe and
  /// its neighbours' <value, position> replies) to the ledger. The paper's
  /// traffic figures count report traffic; local exchanges are tracked
  /// separately in IsoMapResult and only added to the ledger when enabled.
  bool account_local_measurement = true;

  /// Charge the initial query flood down the routing tree. Off by default:
  /// the dissemination cost is common to every protocol compared in the
  /// paper and cancels out of the figures.
  bool account_query_dissemination = false;

  /// Per-message header bytes added to each report batch transmission.
  /// The paper charges parameter bytes only, so the default is 0. Must
  /// be finite and >= 0.
  double header_bytes = 0.0;

  /// Link layer for the report convergecast (net/channel.hpp). A
  /// dropped batch loses every report it carried; with an impairment
  /// pipeline IsoMapResult gains measured end-to-end report latency.
  LinkOptions link;

  /// Mid-run fault injection (node crashes, region blackouts) and the
  /// self-healing repair switch; inactive by default. See fault/fault.hpp
  /// and docs/ROBUSTNESS.md.
  FaultConfig fault;

  /// Record every convergecast transmission in IsoMapResult::transmissions
  /// (for MAC-layer replay studies).
  bool record_transmissions = false;

  /// Use the adaptive border region (extension): each node sizes epsilon
  /// from its local slope so the selected strip is ~one radio range wide
  /// everywhere. See select_isoline_nodes_adaptive.
  bool adaptive_epsilon = false;

  static constexpr double kQueryBytes = 8.0;        ///< lambda_lo/hi, T, eps.
  static constexpr double kProbeBytes = 2.0;        ///< Neighbourhood probe.
  static constexpr double kSampleTupleBytes = 6.0;  ///< <value, x, y> reply.
};

/// The counters of one protocol run, declared once: IsoMapResult carries
/// them, and the run capsule's SingleShotOutputs stores them.
struct IsoMapCounters {
  int isoline_node_count = 0;   ///< Distinct nodes selected (any level).
  int generated_reports = 0;    ///< Reports created at isoline nodes.
  int delivered_reports = 0;    ///< Reports surviving to the sink.

  /// Loss accounting. Every generated report ends in exactly one bucket:
  ///   generated = delivered + filtered + lost_channel + lost_crash
  /// `filtered` are deliberate in-network filter merges (Section 3.5);
  /// `lost_channel` died in the channel after exhausting ARQ retries;
  /// `lost_crash` were stranded by node crashes (buffered at a node when
  /// it died, or held by an orphan the repair could not re-attach).
  int filtered_reports = 0;
  int lost_channel_reports = 0;
  int lost_crash_reports = 0;

  int crashed_nodes = 0;        ///< Nodes that died mid-run.
  int route_repairs = 0;        ///< Orphans re-attached by self-healing.
  double repair_traffic_bytes = 0.0;  ///< Repair beacon + ack bytes.

  double report_traffic_bytes = 0.0;       ///< Hop-by-hop report bytes.
  double measurement_traffic_bytes = 0.0;  ///< Local-exchange bytes.
  double dissemination_traffic_bytes = 0.0;

  /// TDMA convergecast bottleneck: the sum over tree levels of the
  /// largest single-node transmission at that level (Section 3.1: "nodes
  /// in different levels forward packets during different time slots", so
  /// each level's slot must fit its busiest node). Divide by the radio
  /// rate for the collection latency.
  double bottleneck_bytes = 0.0;

  /// Measured end-to-end report latency over the impaired link pipeline:
  /// per delivered report, the sum of per-hop ARQ virtual completion
  /// times along its path. first/last are the fastest/slowest delivered
  /// report; `e2e_last_latency_s` is when the sink's map input is
  /// complete — the map latency. All exactly 0.0 when link.impair is
  /// unset (delivery is instantaneous by assumption).
  double e2e_first_latency_s = 0.0;
  double e2e_last_latency_s = 0.0;
  double e2e_mean_latency_s = 0.0;

  /// Collection latency in seconds at `kbps` (default: MICA2's CC1000).
  double latency_s(double kbps = 38.4) const {
    return bottleneck_bytes * 8.0 / (kbps * 1000.0);
  }
};

/// Everything a protocol run produces at / about the sink.
struct IsoMapResult : IsoMapCounters {
  std::vector<IsolineReport> sink_reports;  ///< After in-network filtering.
  ContourMap map;                           ///< Built at the sink.

  /// Convergecast transmissions (only when
  /// IsoMapOptions::record_transmissions is set).
  TransmissionLog transmissions;
};

/// End-to-end trace-driven simulation of Iso-Map (Section 3): query
/// dissemination, isoline-node self-selection, local regression
/// measurement, in-network-filtered convergecast, and sink-side map
/// construction. All node costs are charged to the caller's Ledger; the
/// sink's map construction is not charged (the sink is a powered host).
class IsoMapProtocol {
 public:
  /// Throws std::invalid_argument on options no run could use (a bad
  /// header_bytes, regression_hops < 1 or a bad link option), before
  /// anything is charged.
  explicit IsoMapProtocol(IsoMapOptions options);

  const IsoMapOptions& options() const { return options_; }

  /// `readings` holds each node's sensed value, indexed by node id (only
  /// alive nodes are read) — the same trace-driven interface the baseline
  /// protocols use, so measurement noise injected by the scenario reaches
  /// every protocol identically.
  IsoMapResult run(const std::vector<double>& readings,
                   const Deployment& deployment, const CommGraph& graph,
                   const RoutingTree& tree, Ledger& ledger) const;

 private:
  IsoMapOptions options_;
};

}  // namespace isomap
