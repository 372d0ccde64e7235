#pragma once

#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "isomap/filter.hpp"
#include "isomap/report.hpp"
#include "net/channel.hpp"
#include "net/comm_graph.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"
#include "net/transmission_log.hpp"

namespace isomap {

/// How the report convergecast forwards and accounts each batch.
struct ConvergecastOptions {
  /// In-network filter (Section 3.5) applied at every receiving node;
  /// null forwards every report unfiltered.
  const InNetworkFilter* filter = nullptr;
  /// Per-message header bytes added to each batch transmission.
  double header_bytes = 0.0;
  /// Record every batch transmission in ConvergecastResult::transmissions.
  bool record_transmissions = false;
};

/// Mid-run faults during the convergecast: the injector, advanced along
/// convergecast progress, and the graph the self-healing repair rewires
/// the tree over.
struct ConvergecastFaults {
  FaultInjector& injector;
  const CommGraph& graph;
  bool self_healing = true;
};

/// What reached the sink, and where the rest went.
struct ConvergecastResult {
  std::vector<IsolineReport> sink_reports;  ///< In arrival order.
  int filtered = 0;      ///< Dropped by the in-network filter.
  int lost_channel = 0;  ///< Died in the channel after every retry.
  int lost_crash = 0;    ///< Stranded by crashes or on an orphan.
  int repairs = 0;       ///< Orphans the self-healing re-attached.
  double repair_bytes = 0.0;
  double report_bytes = 0.0;      ///< Hop-by-hop batch bytes.
  double bottleneck_bytes = 0.0;  ///< Sum of each level's largest batch.
  TransmissionLog transmissions;  ///< Only with record_transmissions.
  /// Summed per-hop ARQ latency, indexed by report id; empty unless the
  /// channel is impaired.
  std::vector<double> latency_by_id;
};

/// Route `generated` — each report at its source, ids 0..k-1 in
/// generation order — to the sink of `tree` in TAG slot order: deepest
/// level first, ascending id within a level, each node sending its whole
/// batch to its parent in one transmission (Section 3.1). Every charge
/// goes to `ledger` through `channel`; report hops, losses and filter
/// drops are traced when an obs::TraceSink is active.
///
/// On a static tree (`faults` null) only the nodes that hold reports are
/// visited, level by level. With faults the walk covers the whole
/// post-order in epochs, because fault timing is keyed to post-order
/// progress; both walks forward batches through one per-hop body, so a
/// fault plan with no events reproduces the static walk exactly.
ConvergecastResult convergecast(std::span<const IsolineReport> generated,
                                const RoutingTree& tree, Channel& channel,
                                Ledger& ledger,
                                const ConvergecastOptions& options,
                                const ConvergecastFaults* faults = nullptr);

}  // namespace isomap
