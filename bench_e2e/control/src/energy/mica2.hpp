#pragma once

#include "net/ledger.hpp"

namespace isomap {

/// Energy model of the MICA2 mote, using the constants the paper quotes in
/// Section 5.3: ATmega128 micro-controller at 33 mW active power and
/// 242 MIPS/W, CC1000 transceiver at 38.4 kbps consuming 29 mW receiving
/// and 42 mW transmitting (0 dBm). The model converts the simulation's
/// byte/op counts into Joules exactly the way the paper does.
struct Mica2Model {
  double radio_kbps = 38.4;        ///< Radio data rate.
  double tx_power_mw = 42.0;       ///< Transmit power.
  double rx_power_mw = 29.0;       ///< Receive power.
  double cpu_mips_per_watt = 242.0;///< Computation efficiency.

  /// Seconds on air for `bytes` bytes.
  double airtime_s(double bytes) const {
    return bytes * 8.0 / (radio_kbps * 1000.0);
  }

  /// Energy (J) to transmit `bytes` bytes.
  double tx_energy_j(double bytes) const {
    return airtime_s(bytes) * tx_power_mw * 1e-3;
  }

  /// Energy (J) to receive `bytes` bytes.
  double rx_energy_j(double bytes) const {
    return airtime_s(bytes) * rx_power_mw * 1e-3;
  }

  /// Energy (J) to execute `ops` arithmetic instructions.
  double compute_energy_j(double ops) const {
    return ops / (cpu_mips_per_watt * 1e6);
  }

  /// Total energy (J) charged to node `node` in `ledger`.
  double node_energy_j(const Ledger& ledger, int node) const {
    return tx_energy_j(ledger.tx_bytes(node)) +
           rx_energy_j(ledger.rx_bytes(node)) +
           compute_energy_j(ledger.ops(node));
  }

  /// Network-wide energy (J).
  double total_energy_j(const Ledger& ledger) const;

  /// Mean per-node energy (J) — the paper's Fig. 16 metric.
  double mean_node_energy_j(const Ledger& ledger) const;
};

}  // namespace isomap
