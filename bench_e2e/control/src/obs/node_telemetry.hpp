#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace isomap::obs {

/// Energy coefficients used to convert per-node byte/op counts into
/// Joules. Defaults mirror energy/Mica2Model (CC1000 at 38.4 kbps,
/// 42 mW tx / 29 mW rx, ATmega128 at 242 MIPS/W); they are carried here
/// as plain numbers because obs sits below the energy layer in the
/// library graph.
struct TelemetryEnergyModel {
  double tx_j_per_byte = 42.0e-3 * 8.0 / 38.4e3;
  double rx_j_per_byte = 29.0e-3 * 8.0 / 38.4e3;
  double j_per_op = 1.0 / 242.0e6;

  double energy_j(double tx_bytes, double rx_bytes, double ops) const {
    return tx_bytes * tx_j_per_byte + rx_bytes * rx_j_per_byte +
           ops * j_per_op;
  }
  JsonValue to_json() const;
};

/// Value snapshot of a NodeTelemetry table: the dense per-node arrays,
/// flattened for storage (run capsules) and export (isomap_replay
/// --telemetry). Per-phase tx/rx lanes are sorted by phase name.
struct NodeTelemetrySnapshot {
  std::vector<double> tx_bytes;
  std::vector<double> rx_bytes;
  std::vector<double> ops;
  std::vector<int> hops;  ///< Hops to sink; -1 = unknown/unreachable.
  std::vector<long long> generated;
  std::vector<long long> delivered;
  std::vector<long long> filtered;
  std::vector<long long> lost_channel;
  std::vector<long long> lost_crash;
  std::vector<long long> relayed;
  std::vector<long long> retries;
  std::vector<long long> drops;
  // Impaired-link lanes (empty in snapshots decoded from pre-impairment
  // capsules; all-zero when the run used a plain channel).
  std::vector<long long> dup_rx;
  std::vector<long long> corrupt_rx;
  std::vector<long long> arq_timeouts;

  struct PhaseLane {
    std::string phase;
    std::vector<double> tx_bytes;
    std::vector<double> rx_bytes;
  };
  std::vector<PhaseLane> phases;

  TelemetryEnergyModel energy;

  int size() const { return static_cast<int>(tx_bytes.size()); }
  JsonValue to_json() const;
};

/// Compressed balance statistics for a RunSummary's `node_telemetry`
/// block: who the hotspots are and how evenly traffic/energy landed.
struct NodeTelemetrySummary {
  int nodes = 0;
  int active_nodes = 0;        ///< Nodes with any charge at all.
  std::vector<int> hotspots;   ///< Top node ids by energy, descending.
  double max_tx_bytes = 0.0;
  double mean_tx_bytes = 0.0;
  double energy_gini = 0.0;          ///< 0 = perfectly balanced.
  double energy_max_over_mean = 0.0; ///< Max-min balance ratio.
  int max_hops = 0;

  JsonValue to_json() const;
};

/// Dense, index-addressed per-node flight recorder. Charged at the
/// instrumentation choke points (Ledger, Channel, RoutingTree::repair,
/// InNetworkFilter, IsoMapProtocol) when installed in the thread's
/// obs::Context; every charge is an O(1) array write, so the table stays
/// viable at million-node scale. Charges are posted in exactly the order
/// (and with exactly the amounts) the Ledger posts its own per-node
/// arrays, so per-node sums reconcile bit-for-bit with Ledger totals —
/// the invariant `isomap_inspect --reconcile` enforces.
///
/// Not thread-safe: like MetricsRegistry, a table belongs to the serial
/// protocol path of the run that owns it (exec workers run under an
/// empty obs::Context and never touch it).
class NodeTelemetry {
 public:
  explicit NodeTelemetry(int num_nodes);

  int size() const { return static_cast<int>(tx_bytes_.size()); }

  // --- O(1) charge hooks --------------------------------------------
  void charge_tx(int node, double bytes, const char* phase) {
    tx_bytes_[static_cast<std::size_t>(node)] += bytes;
    lane(phase).tx[static_cast<std::size_t>(node)] += bytes;
  }
  void charge_rx(int node, double bytes, const char* phase) {
    rx_bytes_[static_cast<std::size_t>(node)] += bytes;
    lane(phase).rx[static_cast<std::size_t>(node)] += bytes;
  }
  void charge_ops(int node, double ops) {
    ops_[static_cast<std::size_t>(node)] += ops;
  }
  void add_retry(int node) { ++retries_[static_cast<std::size_t>(node)]; }
  void add_drop(int node) { ++drops_[static_cast<std::size_t>(node)]; }
  void add_dup_rx(int node) { ++dup_rx_[static_cast<std::size_t>(node)]; }
  void add_corrupt_rx(int node) {
    ++corrupt_rx_[static_cast<std::size_t>(node)];
  }
  void add_arq_timeout(int node) {
    ++arq_timeouts_[static_cast<std::size_t>(node)];
  }
  void count_generated(int node) {
    ++generated_[static_cast<std::size_t>(node)];
  }
  void count_delivered(int node) {
    ++delivered_[static_cast<std::size_t>(node)];
  }
  void count_filtered(int node) {
    ++filtered_[static_cast<std::size_t>(node)];
  }
  void count_lost_channel(int node) {
    ++lost_channel_[static_cast<std::size_t>(node)];
  }
  void count_lost_crash(int node) {
    ++lost_crash_[static_cast<std::size_t>(node)];
  }
  void count_relayed(int node) {
    ++relayed_[static_cast<std::size_t>(node)];
  }
  void set_hops(int node, int hops) {
    hops_[static_cast<std::size_t>(node)] = hops;
  }

  // --- Accessors ----------------------------------------------------
  double tx_bytes(int node) const {
    return tx_bytes_[static_cast<std::size_t>(node)];
  }
  double rx_bytes(int node) const {
    return rx_bytes_[static_cast<std::size_t>(node)];
  }
  double ops(int node) const { return ops_[static_cast<std::size_t>(node)]; }
  int hops(int node) const { return hops_[static_cast<std::size_t>(node)]; }
  long long generated(int node) const {
    return generated_[static_cast<std::size_t>(node)];
  }
  long long delivered(int node) const {
    return delivered_[static_cast<std::size_t>(node)];
  }
  long long filtered(int node) const {
    return filtered_[static_cast<std::size_t>(node)];
  }
  long long lost_channel(int node) const {
    return lost_channel_[static_cast<std::size_t>(node)];
  }
  long long lost_crash(int node) const {
    return lost_crash_[static_cast<std::size_t>(node)];
  }
  long long relayed(int node) const {
    return relayed_[static_cast<std::size_t>(node)];
  }
  long long retries(int node) const {
    return retries_[static_cast<std::size_t>(node)];
  }
  long long drops(int node) const {
    return drops_[static_cast<std::size_t>(node)];
  }
  long long dup_rx(int node) const {
    return dup_rx_[static_cast<std::size_t>(node)];
  }
  long long corrupt_rx(int node) const {
    return corrupt_rx_[static_cast<std::size_t>(node)];
  }
  long long arq_timeouts(int node) const {
    return arq_timeouts_[static_cast<std::size_t>(node)];
  }

  /// Per-phase tx/rx lane for `phase` (nullptr when that phase never
  /// charged anything).
  const std::vector<double>* phase_tx(const std::string& phase) const;
  const std::vector<double>* phase_rx(const std::string& phase) const;
  std::vector<std::string> phase_names() const;

  /// Energy (J) charged to `node` under the table's coefficients.
  double energy_j(int node) const {
    const auto i = static_cast<std::size_t>(node);
    return energy.energy_j(tx_bytes_[i], rx_bytes_[i], ops_[i]);
  }

  double total_tx_bytes() const;
  double total_rx_bytes() const;
  double total_ops() const;

  NodeTelemetrySnapshot snapshot() const;
  NodeTelemetrySummary summarize(std::size_t top_k = 5) const;

  TelemetryEnergyModel energy;

 private:
  /// One per-phase charge lane. Lanes are keyed by phase label; lookup
  /// is one pointer compare on the cached last label (phase changes are
  /// rare relative to charges), falling back to a strcmp scan only when
  /// the label pointer changes. unique_ptr keeps lane addresses stable
  /// across appends so the cache never dangles.
  struct Lane {
    const char* key;
    std::string name;
    std::vector<double> tx;
    std::vector<double> rx;
  };
  Lane& lane(const char* phase) {
    if (cached_ != nullptr && cached_->key == phase) return *cached_;
    return lane_slow(phase);
  }
  Lane& lane_slow(const char* phase);

  std::vector<double> tx_bytes_;
  std::vector<double> rx_bytes_;
  std::vector<double> ops_;
  std::vector<int> hops_;
  std::vector<long long> generated_;
  std::vector<long long> delivered_;
  std::vector<long long> filtered_;
  std::vector<long long> lost_channel_;
  std::vector<long long> lost_crash_;
  std::vector<long long> relayed_;
  std::vector<long long> retries_;
  std::vector<long long> drops_;
  std::vector<long long> dup_rx_;
  std::vector<long long> corrupt_rx_;
  std::vector<long long> arq_timeouts_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  Lane* cached_ = nullptr;
};

}  // namespace isomap::obs
