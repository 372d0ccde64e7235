#pragma once

// Oracle for convergecast (src/isomap/convergecast.hpp) on a static tree:
// the level frontier must reproduce this walk's sink reports, counters,
// ledger charges, channel draws, transmission log, latencies and trace
// events exactly. Filter merges run through the bucket-walk oracle
// (oracles/filter_bucket_walk.hpp), so the walk and the filter index are
// both checked against an independent reference.

#include <algorithm>
#include <span>
#include <vector>

#include "isomap/convergecast.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "oracles/filter_bucket_walk.hpp"

namespace isomap::oracle {

/// The pre-frontier walk: one report buffer per node, every reachable
/// node of post_order() visited, then every buffer swept for reports
/// left below the sink.
inline ConvergecastResult convergecast_post_order(
    std::span<const IsolineReport> generated, const RoutingTree& tree,
    Channel& channel, Ledger& ledger, const ConvergecastOptions& options) {
  obs::NodeTelemetry* const tel = obs::telemetry();
  obs::TraceSink* const span_sink = obs::trace();
  const int n = tree.size();
  std::vector<std::vector<IsolineReport>> buffer(static_cast<std::size_t>(n));
  for (const IsolineReport& r : generated)
    buffer[static_cast<std::size_t>(r.source)].push_back(r);
  ConvergecastResult out;
  const bool impaired = channel.impaired();
  if (impaired) out.latency_by_id.assign(generated.size(), 0.0);
  if (tel != nullptr)
    for (int v = 0; v < n; ++v) tel->set_hops(v, tree.level(v));

  const auto emit_loss = [&](const IsolineReport& r, int at, int next_hop) {
    if (span_sink == nullptr) return;
    obs::TraceEvent event;
    event.kind = "loss";
    event.phase = obs::current_phase();
    event.node = at;
    event.peer = next_hop;
    event.report = r.id;
    event.hop = r.hops;
    event.isolevel = r.isolevel;
    span_sink->emit(event);
  };

  std::vector<double> level_bottleneck(
      static_cast<std::size_t>(tree.depth()) + 1, 0.0);
  for (int u : tree.post_order()) {
    if (u == tree.sink()) continue;
    auto& outgoing = buffer[static_cast<std::size_t>(u)];
    if (outgoing.empty()) continue;
    const int p = tree.parent(u);
    const double bytes = static_cast<double>(outgoing.size()) *
                             IsolineReport::kWireBytes +
                         options.header_bytes;
    const auto lvl = static_cast<std::size_t>(tree.level(u));
    level_bottleneck[lvl] = std::max(level_bottleneck[lvl], bytes);
    const Channel::Transfer transfer = channel.transfer(u, p, bytes, ledger);
    out.report_bytes += bytes;
    if (options.record_transmissions)
      out.transmissions.push_back({u, p, bytes, tree.level(u)});
    if (transfer.delivered) {
      for (auto& r : outgoing) {
        ++r.hops;
        if (impaired)
          out.latency_by_id[static_cast<std::size_t>(r.id)] +=
              transfer.latency_s;
        if (tel != nullptr && r.source != u) tel->count_relayed(u);
        if (span_sink != nullptr) {
          obs::TraceEvent event;
          event.kind = "span";
          event.phase = obs::current_phase();
          event.node = u;
          event.peer = p;
          event.report = r.id;
          event.hop = r.hops;
          event.isolevel = r.isolevel;
          event.latency_s = impaired ? transfer.latency_s : -1.0;
          span_sink->emit(event);
        }
      }
      auto& inbox = buffer[static_cast<std::size_t>(p)];
      if (options.filter != nullptr) {
        const obs::PhaseTimer filter_timer(obs::kPhaseFilter);
        const std::size_t kept_before = inbox.size();
        double ops = 0.0;
        merge_bucket_walk(*options.filter, inbox, outgoing, &ops, p);
        ledger.compute(p, ops);
        out.filtered += static_cast<int>(outgoing.size() -
                                         (inbox.size() - kept_before));
      } else {
        inbox.insert(inbox.end(), outgoing.begin(), outgoing.end());
      }
    } else {
      for (const auto& r : outgoing) {
        if (tel != nullptr) tel->count_lost_channel(r.source);
        emit_loss(r, u, p);
      }
      out.lost_channel += static_cast<int>(outgoing.size());
    }
    outgoing.clear();
  }
  for (int v = 0; v < n; ++v) {
    if (v == tree.sink()) continue;
    auto& stuck = buffer[static_cast<std::size_t>(v)];
    for (const auto& r : stuck) {
      if (tel != nullptr) tel->count_lost_crash(r.source);
      emit_loss(r, v, -1);
    }
    out.lost_crash += static_cast<int>(stuck.size());
    stuck.clear();
  }
  out.sink_reports = std::move(buffer[static_cast<std::size_t>(tree.sink())]);
  for (double slot : level_bottleneck) out.bottleneck_bytes += slot;
  return out;
}

}  // namespace isomap::oracle
