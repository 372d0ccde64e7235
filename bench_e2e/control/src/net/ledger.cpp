#include "net/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "net/comm_graph.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

Ledger::Ledger(int num_nodes) {
  if (num_nodes < 0) throw std::invalid_argument("Ledger: negative size");
  tx_bytes_.assign(static_cast<std::size_t>(num_nodes), 0.0);
  rx_bytes_.assign(static_cast<std::size_t>(num_nodes), 0.0);
  ops_.assign(static_cast<std::size_t>(num_nodes), 0.0);
}

void Ledger::check_node(int node, const char* what) const {
  if (node < 0 || node >= size())
    throw std::out_of_range(std::string("Ledger::") + what + ": node " +
                            std::to_string(node) + " outside [0, " +
                            std::to_string(size()) + ")");
}

void Ledger::check_amount(double amount, const char* what) {
  if (!(amount >= 0.0) || !std::isfinite(amount))
    throw std::invalid_argument(std::string("Ledger::") + what +
                                ": amount must be finite and >= 0, got " +
                                std::to_string(amount));
}

void Ledger::transmit(int from, int to, double bytes) {
  check_node(from, "transmit");
  check_node(to, "transmit");
  check_amount(bytes, "transmit");
  tx_bytes_[static_cast<std::size_t>(from)] += bytes;
  rx_bytes_[static_cast<std::size_t>(to)] += bytes;
  // Telemetry charges mirror the array writes above in the same order
  // with the same amounts, so the per-node table reconciles bit-for-bit.
  if (obs::NodeTelemetry* t = obs::telemetry()) {
    const char* phase = obs::current_phase();
    t->charge_tx(from, bytes, phase);
    t->charge_rx(to, bytes, phase);
  }
  if (obs::TraceSink* sink = obs::trace()) {
    obs::TraceEvent event;
    event.phase = obs::current_phase();
    event.node = from;
    event.peer = to;
    event.tx_bytes = bytes;
    event.rx_bytes = bytes;
    sink->emit(event);
  }
}

void Ledger::broadcast(int from, std::span<const int> receivers,
                       double bytes) {
  check_node(from, "broadcast");
  check_amount(bytes, "broadcast");
  for (int r : receivers) check_node(r, "broadcast");
  tx_bytes_[static_cast<std::size_t>(from)] += bytes;
  for (int r : receivers) rx_bytes_[static_cast<std::size_t>(r)] += bytes;
  if (obs::NodeTelemetry* t = obs::telemetry()) {
    const char* phase = obs::current_phase();
    t->charge_tx(from, bytes, phase);
    for (int r : receivers) t->charge_rx(r, bytes, phase);
  }
  if (obs::TraceSink* sink = obs::trace()) {
    obs::TraceEvent event;
    event.phase = obs::current_phase();
    event.node = from;
    event.tx_bytes = bytes;
    event.rx_bytes = bytes * static_cast<double>(receivers.size());
    sink->emit(event);
  }
}

void Ledger::transmit_lost(int from, double bytes) {
  check_node(from, "transmit_lost");
  check_amount(bytes, "transmit_lost");
  tx_bytes_[static_cast<std::size_t>(from)] += bytes;
  if (obs::NodeTelemetry* t = obs::telemetry())
    t->charge_tx(from, bytes, obs::current_phase());
  if (obs::TraceSink* sink = obs::trace()) {
    obs::TraceEvent event;
    event.phase = obs::current_phase();
    event.node = from;
    event.tx_bytes = bytes;
    sink->emit(event);
  }
}

void Ledger::receive(int to, double bytes) {
  check_node(to, "receive");
  check_amount(bytes, "receive");
  rx_bytes_[static_cast<std::size_t>(to)] += bytes;
  if (obs::NodeTelemetry* t = obs::telemetry())
    t->charge_rx(to, bytes, obs::current_phase());
  if (obs::TraceSink* sink = obs::trace()) {
    obs::TraceEvent event;
    event.phase = obs::current_phase();
    event.node = to;
    event.rx_bytes = bytes;
    sink->emit(event);
  }
}

double Ledger::broadcast_all(const CommGraph& graph, double bytes) {
  if (graph.size() != size())
    throw std::invalid_argument("Ledger::broadcast_all: graph size mismatch");
  check_amount(bytes, "broadcast_all");
  obs::TraceSink* const sink = obs::trace();
  obs::NodeTelemetry* const telemetry = obs::telemetry();
  const char* const phase =
      telemetry != nullptr ? obs::current_phase() : nullptr;
  double total = 0.0;
  for (int v = 0; v < graph.size(); ++v) {
    if (!graph.alive(v)) continue;
    // Adjacency is alive-only and fixed after construction, so node v
    // receives exactly one beacon per listed neighbour: charge rx as one
    // degree product instead of walking every edge. O(n) per round, not
    // O(n + E).
    const double rx = bytes * static_cast<double>(graph.degree(v));
    tx_bytes_[static_cast<std::size_t>(v)] += bytes;
    rx_bytes_[static_cast<std::size_t>(v)] += rx;
    total += bytes;
    if (telemetry != nullptr) {
      telemetry->charge_tx(v, bytes, phase);
      telemetry->charge_rx(v, rx, phase);
    }
    if (sink != nullptr) {
      obs::TraceEvent event;
      event.phase = obs::current_phase();
      event.node = v;
      event.tx_bytes = bytes;
      event.rx_bytes = rx;
      sink->emit(event);
    }
  }
  return total;
}

void Ledger::compute_all(const CommGraph& graph,
                         const std::vector<double>& ops) {
  if (graph.size() != size())
    throw std::invalid_argument("Ledger::compute_all: graph size mismatch");
  if (ops.size() < static_cast<std::size_t>(size()))
    throw std::invalid_argument("Ledger::compute_all: ops vector too short");
  obs::TraceSink* const sink = obs::trace();
  obs::NodeTelemetry* const telemetry = obs::telemetry();
  for (int v = 0; v < graph.size(); ++v) {
    if (!graph.alive(v)) continue;
    const double amount = ops[static_cast<std::size_t>(v)];
    check_amount(amount, "compute_all");
    ops_[static_cast<std::size_t>(v)] += amount;
    if (telemetry != nullptr) telemetry->charge_ops(v, amount);
    if (sink != nullptr) {
      obs::TraceEvent event;
      event.phase = obs::current_phase();
      event.node = v;
      event.ops = amount;
      sink->emit(event);
    }
  }
}

void Ledger::compute(int node, double ops) {
  check_node(node, "compute");
  check_amount(ops, "compute");
  ops_[static_cast<std::size_t>(node)] += ops;
  if (obs::NodeTelemetry* t = obs::telemetry()) t->charge_ops(node, ops);
  if (obs::TraceSink* sink = obs::trace()) {
    obs::TraceEvent event;
    event.phase = obs::current_phase();
    event.node = node;
    event.ops = ops;
    sink->emit(event);
  }
}

double Ledger::total_tx_bytes() const {
  double total = 0.0;
  for (double b : tx_bytes_) total += b;
  return total;
}

double Ledger::total_rx_bytes() const {
  double total = 0.0;
  for (double b : rx_bytes_) total += b;
  return total;
}

double Ledger::total_ops() const {
  double total = 0.0;
  for (double o : ops_) total += o;
  return total;
}

double Ledger::mean_ops() const {
  return ops_.empty() ? 0.0 : total_ops() / static_cast<double>(ops_.size());
}

double Ledger::max_ops() const {
  double best = 0.0;
  for (double o : ops_) best = std::max(best, o);
  return best;
}

void Ledger::merge(const Ledger& other) {
  // Aggregation of already-accounted ledgers (e.g. multi-round lifetime
  // studies): no trace events and no telemetry charges here — both were
  // posted when the costs were incurred, and re-posting would double
  // count.
  if (other.size() != size()) throw std::invalid_argument("Ledger size mismatch");
  for (std::size_t i = 0; i < tx_bytes_.size(); ++i) {
    tx_bytes_[i] += other.tx_bytes_[i];
    rx_bytes_[i] += other.rx_bytes_[i];
    ops_[i] += other.ops_[i];
  }
}

}  // namespace isomap
