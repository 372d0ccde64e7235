#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/ledger.hpp"
#include "net/routing_tree.hpp"
#include "obs/obs.hpp"

namespace isomap {

/// What an aggregating convergecast delivered, and what its link lost.
template <class Item>
struct AggregateCollection {
  std::vector<Item> at_sink;   ///< The sink's merged items.
  double traffic_bytes = 0.0;  ///< Bytes of every hop batch sent.
  int batches_lost = 0;        ///< Hop batches that exhausted the ARQ.
  int items_lost = 0;          ///< Items those batches carried.
  /// Virtual time when the last batch reached the sink: a node's arrival
  /// time is the max over its delivered children of the child's arrival
  /// plus that hop's ARQ completion. 0.0 on an unimpaired link.
  double collection_latency_s = 0.0;
};

/// The post-order aggregating convergecast INLR and eScan share.
/// `buffer[v]` holds node v's own items. Leaves first, every node with
/// items merges them with what its children delivered (`merge(items, v)`
/// charges its own ops), then sends the merged batch to its parent as
/// one transfer of `item_bytes` per item. A lost batch loses every item
/// it carried. Merges are timed as the aggregate phase and transfers as
/// report_route, so the merge cost that Fig. 15 compares shows per hop.
template <class Item, class Merge>
AggregateCollection<Item> aggregate_convergecast(
    std::vector<std::vector<Item>> buffer, const RoutingTree& tree,
    const LinkOptions& link, double item_bytes, Ledger& ledger,
    Merge&& merge) {
  AggregateCollection<Item> out;
  Channel channel(link);
  const bool impaired = channel.impaired();
  std::vector<double> arrival(buffer.size(), 0.0);
  for (const int u : tree.post_order()) {
    auto& outgoing = buffer[static_cast<std::size_t>(u)];
    if (outgoing.empty()) continue;
    {
      const obs::PhaseTimer timer(obs::kPhaseAggregate);
      merge(outgoing, u);
    }
    if (u == tree.sink()) continue;
    const int p = tree.parent(u);
    const double bytes = static_cast<double>(outgoing.size()) * item_bytes;
    Channel::Transfer transfer;
    {
      const obs::PhaseTimer timer(obs::kPhaseReportRoute);
      transfer = channel.transfer(u, p, bytes, ledger);
    }
    out.traffic_bytes += bytes;
    if (!transfer.delivered) {
      ++out.batches_lost;
      out.items_lost += static_cast<int>(outgoing.size());
      outgoing.clear();
      continue;
    }
    if (impaired) {
      const auto pu = static_cast<std::size_t>(p);
      arrival[pu] = std::max(
          arrival[pu],
          arrival[static_cast<std::size_t>(u)] + transfer.latency_s);
    }
    auto& inbox = buffer[static_cast<std::size_t>(p)];
    inbox.insert(inbox.end(), outgoing.begin(), outgoing.end());
    outgoing.clear();
  }
  const auto sink = static_cast<std::size_t>(tree.sink());
  if (impaired) out.collection_latency_s = arrival[sink];
  out.at_sink = std::move(buffer[sink]);
  return out;
}

}  // namespace isomap
