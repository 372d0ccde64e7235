#include "energy/mica2.hpp"

namespace isomap {

double Mica2Model::total_energy_j(const Ledger& ledger) const {
  return tx_energy_j(ledger.total_tx_bytes()) +
         rx_energy_j(ledger.total_rx_bytes()) +
         compute_energy_j(ledger.total_ops());
}

double Mica2Model::mean_node_energy_j(const Ledger& ledger) const {
  const int n = ledger.size();
  return n > 0 ? total_energy_j(ledger) / n : 0.0;
}

}  // namespace isomap
