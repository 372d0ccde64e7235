#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace isomap {

class CommGraph;

/// Per-node accounting of communication (bytes transmitted/received per
/// hop) and computation (arithmetic operations). Every protocol run —
/// Iso-Map and all baselines — charges its costs here so Figs. 14-16 read
/// off one uniform ledger, which the energy model then converts to Joules.
///
/// Every charge is validated (node ids in range, amounts finite and
/// non-negative — std::out_of_range / std::invalid_argument otherwise)
/// and, when an obs::TraceSink is active on this thread, mirrored as a
/// "cost" trace event tagged with the current obs phase. Because the
/// events are emitted at the charge site, summing a trace's cost events
/// reconciles with the ledger totals by construction.
class Ledger {
 public:
  explicit Ledger(int num_nodes);

  int size() const { return static_cast<int>(tx_bytes_.size()); }

  /// One-hop transmission of `bytes` from node `from` to node `to`.
  void transmit(int from, int to, double bytes);

  /// Local broadcast: the sender pays one transmission of `bytes`; every
  /// listed receiver pays one reception of `bytes`.
  void broadcast(int from, std::span<const int> receivers, double bytes);
  void broadcast(int from, std::initializer_list<int> receivers,
                 double bytes) {
    broadcast(from, std::span<const int>(receivers.begin(), receivers.size()),
              bytes);
  }

  /// A transmission that was lost in the channel: the sender pays the
  /// airtime, nobody receives anything.
  void transmit_lost(int from, double bytes);

  /// Reception of `bytes` at node `to` whose transmission was charged
  /// separately. Used by the impaired link pipeline, where delivery is
  /// time-shifted: the sender's airtime is charged at send time (via
  /// transmit_lost — the frame may still be lost, duplicated or
  /// corrupted in flight) and each frame copy that actually reaches the
  /// receiver is charged here at arrival time.
  void receive(int to, double bytes);

  /// Charge `ops` arithmetic operations to node `node`.
  void compute(int node, double ops);

  /// One beacon of `bytes` from every alive node of `graph` to all its
  /// neighbours. The graph's adjacency is alive-only and immutable, so
  /// node v's reception charge is posted as one `bytes * degree(v)`
  /// product rather than per edge — O(n) per call, with the same trace
  /// events (one per sender, rx_bytes = bytes * degree) as the per-edge
  /// walk. For integer byte sizes (every charge in this codebase) the
  /// accumulated totals are bit-identical to per-edge accumulation; a
  /// non-representable bytes * degree may differ from an edge-at-a-time
  /// sum in the last ulp. Returns the total bytes transmitted,
  /// accumulated one beacon at a time.
  double broadcast_all(const CommGraph& graph, double bytes);

  /// Charge ops[v] arithmetic operations to every alive node v of
  /// `graph` in id order; identical to per-node compute() calls.
  void compute_all(const CommGraph& graph, const std::vector<double>& ops);

  double tx_bytes(int node) const { return tx_bytes_[static_cast<std::size_t>(node)]; }
  double rx_bytes(int node) const { return rx_bytes_[static_cast<std::size_t>(node)]; }
  double ops(int node) const { return ops_[static_cast<std::size_t>(node)]; }

  double total_tx_bytes() const;
  double total_rx_bytes() const;
  double total_ops() const;

  /// Mean ops per node (over all nodes in the ledger).
  double mean_ops() const;
  double max_ops() const;

  void merge(const Ledger& other);

 private:
  void check_node(int node, const char* what) const;
  static void check_amount(double amount, const char* what);

  std::vector<double> tx_bytes_;
  std::vector<double> rx_bytes_;
  std::vector<double> ops_;
};

}  // namespace isomap
