#include "isomap/protocol.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/exec.hpp"
#include "isomap/regression.hpp"
#include "isomap/round_arena.hpp"
#include "net/channel.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace isomap {

IsoMapProtocol::IsoMapProtocol(IsoMapOptions options)
    : options_(std::move(options)) {}

IsoMapResult IsoMapProtocol::run(const std::vector<double>& readings,
                                 const Deployment& deployment,
                                 const CommGraph& graph,
                                 const RoutingTree& tree,
                                 Ledger& ledger) const {
  const int n = deployment.size();
  if (readings.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("IsoMapProtocol: readings size != node count");
  const ContourQuery& query = options_.query;

  double dissemination_bytes = 0.0;
  if (options_.account_query_dissemination) {
    const obs::PhaseTimer timer(obs::kPhaseDisseminate);
    // The sink floods the query down the tree: one transmission per edge.
    for (int v = 0; v < n; ++v) {
      if (!tree.reachable(v) || v == tree.sink()) continue;
      ledger.transmit(tree.parent(v), v, IsoMapOptions::kQueryBytes);
      dissemination_bytes += IsoMapOptions::kQueryBytes;
    }
  }

  // --- Step 1: distributed isoline-node self-selection (Def. 3.1). ---
  obs::PhaseTimer select_timer(obs::kPhaseSelect);
  std::vector<double> selection_ops;
  const std::vector<SelectionEntry> selected =
      options_.adaptive_epsilon
          ? select_isoline_nodes_adaptive(graph, deployment, readings, query,
                                          graph.radio_range(),
                                          &selection_ops)
          : select_isoline_nodes(graph, readings, query, &selection_ops);
  for (int v = 0; v < n; ++v)
    if (graph.alive(v)) ledger.compute(v, selection_ops[static_cast<std::size_t>(v)]);
  select_timer.stop();

  // --- Step 2: local measurement and report generation (Section 3.3). ---
  // Each distinct isoline node performs one neighbourhood exchange and one
  // regression, shared across all isolevels it matched. Per-node state is
  // kept in flat node-indexed tables (no tree maps): selection emits
  // entries grouped by node, so first-appearance dedup via a flag array
  // yields the same distinct-node order the old std::map walk produced.
  std::vector<Vec2> descent(static_cast<std::size_t>(n));
  std::vector<unsigned char> is_isoline(static_cast<std::size_t>(n), 0);
  std::vector<int> distinct_nodes;
  for (const auto& entry : selected) {
    auto& flag = is_isoline[static_cast<std::size_t>(entry.node)];
    if (flag) continue;
    flag = 1;
    distinct_nodes.push_back(entry.node);
  }

  obs::count("select.entries", static_cast<double>(selected.size()));
  obs::count("select.distinct_nodes",
             static_cast<double>(distinct_nodes.size()));

  obs::PhaseTimer fit_timer(obs::kPhaseGradientFit);
  double measurement_bytes = 0.0;
  std::vector<bool> has_gradient(static_cast<std::size_t>(n), false);
  // Tile-parallel gradient fits. Workers fill one slot per distinct node
  // — the k-hop scope (thread-safe: epoch-stamped thread_local scratch in
  // CommGraph), the sample count and the pure SoA fit — touching nothing
  // shared. Everything order-sensitive (Ledger charges with their cost
  // trace events, the regression metrics, the output tables) happens in
  // the serial merge below, walking slots in distinct-node order, which
  // is exactly the sequence the serial loop emitted: charges first, then
  // fit metrics, then the unconditional compute charge.
  struct FitSlot {
    std::vector<std::pair<int, int>> scope;  ///< (neighbour, hop distance).
    Vec2 descent{};
    std::size_t samples = 0;
    bool has_fit = false;
  };
  std::vector<FitSlot> slots(distinct_nodes.size());
  // Fits are few (O(sqrt(n) * levels)) and each costs O(scope), so small
  // blocks keep all workers fed.
  const TileBlocks fit_blocks{distinct_nodes.size(), 64};
  exec::parallel_for_blocks(
      fit_blocks, [&](std::size_t, std::size_t begin, std::size_t end) {
        // SoA sample scratch reused across this block's isoline nodes:
        // the regression reads unit-stride coordinate/value arrays, and
        // the arrays keep their capacity across fits.
        std::vector<double> sample_xs, sample_ys, sample_vs;
        for (std::size_t i = begin; i < end; ++i) {
          const int node = distinct_nodes[i];
          FitSlot& slot = slots[i];
          slot.scope =
              graph.k_hop_neighbours_with_distance(node, query.regression_hops);

          // Regression runs on the positions the nodes *believe* (their
          // localization output); the sensed values come from the physical
          // positions.
          sample_xs.clear();
          sample_ys.clear();
          sample_vs.clear();
          sample_xs.reserve(slot.scope.size() + 1);
          sample_ys.reserve(slot.scope.size() + 1);
          sample_vs.reserve(slot.scope.size() + 1);
          const auto push_sample = [&](int v) {
            const Vec2 p = deployment.node(v).reported_pos();
            sample_xs.push_back(p.x);
            sample_ys.push_back(p.y);
            sample_vs.push_back(readings[static_cast<std::size_t>(v)]);
          };
          push_sample(node);
          for (const auto& [nb, dist] : slot.scope) push_sample(nb);

          slot.samples = sample_xs.size();
          if (const auto fit = fit_plane_soa(sample_xs, sample_ys, sample_vs)) {
            slot.has_fit = true;
            slot.descent = fit->descent_direction();
          }
        }
      });

  for (std::size_t i = 0; i < distinct_nodes.size(); ++i) {
    const int node = distinct_nodes[i];
    const FitSlot& slot = slots[i];

    // Traffic: one probe broadcast heard by the 1-hop neighbours (k-hop
    // scopes rebroadcast it hop by hop), then one <value, position> reply
    // per scoped neighbour, relayed over its hop distance back to the
    // isoline node.
    if (options_.account_local_measurement) {
      ledger.broadcast(node, graph.neighbours(node),
                       IsoMapOptions::kProbeBytes);
      measurement_bytes += IsoMapOptions::kProbeBytes;
      for (const auto& [nb, dist] : slot.scope) {
        const double reply = IsoMapOptions::kSampleTupleBytes * dist;
        ledger.transmit(nb, node, reply);
        measurement_bytes += reply;
      }
    }

    record_fit_metrics(slot.samples);
    if (!slot.has_fit) record_degenerate_fit();
    ledger.compute(node, slot.has_fit ? fit_plane_ops(slot.samples) : 0.0);
    if (slot.has_fit) {
      descent[static_cast<std::size_t>(node)] = slot.descent;
      has_gradient[static_cast<std::size_t>(node)] = true;
    }
  }
  fit_timer.stop();

  // --- Step 3: convergecast with in-network filtering (Section 3.5). ---
  obs::PhaseTimer route_timer(obs::kPhaseReportRoute);
  // Flight-recorder context, resolved once per run: the per-node telemetry
  // table gets report counters and hop distances, the trace sink gets one
  // "span" event per report hop (keyed by the report's causal id) so the
  // full source->relays->sink path reconstructs from the JSONL trace.
  obs::NodeTelemetry* const tel = obs::telemetry();
  obs::TraceSink* const span_sink = obs::trace();
  // Per-node convergecast buffers live in a per-round arena: the outer
  // table is one flat vector, and every inner report vector bump-allocates
  // from the arena instead of hitting the heap once per node.
  RoundArena arena;
  using ReportVec = std::vector<IsolineReport, ArenaAlloc<IsolineReport>>;
  std::vector<ReportVec> buffer(static_cast<std::size_t>(n),
                                ReportVec(ArenaAlloc<IsolineReport>(arena)));
  int generated = 0;
  for (const auto& entry : selected) {
    if (!has_gradient[static_cast<std::size_t>(entry.node)]) continue;
    if (!tree.reachable(entry.node)) continue;
    auto& slot = buffer[static_cast<std::size_t>(entry.node)];
    slot.push_back({entry.isolevel, deployment.node(entry.node).reported_pos(),
                    descent[static_cast<std::size_t>(entry.node)], entry.node});
    slot.back().id = generated;
    if (tel != nullptr) tel->count_generated(entry.node);
    if (span_sink != nullptr) {
      obs::TraceEvent event;
      event.kind = "span";
      event.phase = obs::current_phase();
      event.node = entry.node;
      event.report = generated;
      event.hop = 0;
      event.isolevel = entry.isolevel;
      span_sink->emit(event);
    }
    ++generated;
  }

  const InNetworkFilter filter = InNetworkFilter::from_query(query);
  Channel channel =
      Channel::make(options_.link_loss, options_.link_retries,
                    options_.link_seed, options_.link_burst,
                    options_.link_impair, options_.link_arq);
  // With the impairment pipeline active, accumulate each report's summed
  // per-hop ARQ completion time (indexed by the report's causal id) so
  // end-to-end latency is measured, not synthetic.
  const bool impaired = channel.impaired();
  std::vector<double> latency_by_id;
  if (impaired)
    latency_by_id.assign(static_cast<std::size_t>(generated), 0.0);

  // Mid-run fault machinery. With faults active the convergecast works on
  // a private copy of the routing tree so the repair can rewire it; the
  // injector advances along convergecast progress and kills nodes on
  // schedule. With no faults the injector is empty and the loop below
  // reduces to the classic single leaves-first pass over the static tree.
  FaultInjector injector(options_.fault.active()
                             ? make_fault_plan(options_.fault, deployment,
                                               tree.sink())
                             : FaultPlan(),
                         deployment, tree.sink());
  const bool faults = !injector.plan_empty();
  std::optional<RoutingTree> healed;
  if (faults) healed.emplace(tree);
  const RoutingTree& route = faults ? *healed : tree;

  // Seed the telemetry hop map from the convergecast tree; repair() will
  // refresh it whenever the tree rewires mid-run.
  if (tel != nullptr)
    for (int v = 0; v < n; ++v) tel->set_hops(v, route.level(v));

  // One "loss" trace event per dead report. Channel losses name the next
  // hop in `peer`; crash losses leave it -1 (the report died in place).
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

  int lost_crash = 0;
  int lost_channel = 0;
  int filtered = 0;
  int repairs = 0;
  double repair_bytes = 0.0;

  // Fire every fault event due at `progress`: reports buffered at a dying
  // node die with it, then (when self-healing) the tree repairs itself —
  // orphans beacon and re-attach, charged to the ledger under their own
  // phase so repair energy is separable from report routing.
  // Returns how many orphans the repair re-attached so the convergecast
  // loop can schedule another epoch for their stranded reports even when
  // nothing else moved this epoch.
  const auto apply_faults = [&](double progress) -> int {
    if (!faults) return 0;
    const std::vector<int> died = injector.advance(progress);
    if (died.empty()) return 0;
    for (int c : died) {
      auto& stranded = buffer[static_cast<std::size_t>(c)];
      for (const auto& r : stranded) {
        if (tel != nullptr) tel->count_lost_crash(r.source);
        emit_loss(r, c, -1);
      }
      lost_crash += static_cast<int>(stranded.size());
      stranded.clear();
    }
    if (!options_.fault.self_healing) return 0;
    const obs::PhaseTimer repair_timer(obs::kPhaseRepair);
    const RoutingTree::RepairReport rep =
        healed->repair(graph, injector.alive_mask(), &ledger);
    repairs += rep.reattached;
    repair_bytes += rep.bytes;
    return rep.reattached;
  };

  double report_bytes = 0.0;
  TransmissionLog transmission_log;
  std::vector<double> level_bottleneck(
      static_cast<std::size_t>(route.depth()) + 1, 0.0);

  // Convergecast epochs. One leaves-first pass delivers everything on a
  // static tree; after a repair, reports re-routed through an
  // already-visited node wait for the next epoch (their new ancestors'
  // TDMA slots have passed), so epochs repeat until no report moves.
  // Every parent is strictly one level below its child — in the repaired
  // tree too — so each epoch moves every surviving report at least one
  // level down and the loop terminates within `depth` epochs.
  const double total_units =
      static_cast<double>(std::max(1, route.reachable_count() - 1));
  double units_done = 0.0;
  bool moved = true;
  int epochs = 0;
  while (moved && epochs <= n) {
    moved = false;
    ++epochs;
    const std::vector<int> order = route.post_order();  // Copy: repair
                                                        // rewrites it.
    for (int u : order) {
      if (u == route.sink()) continue;
      if (faults) {
        // A repair may re-attach orphans holding reports; give them an
        // epoch even if no other buffer moves in this one.
        if (apply_faults(std::min(1.0, units_done / total_units)) > 0)
          moved = true;
        units_done += 1.0;
        if (!injector.alive(u)) continue;  // Died; buffer already lost.
      }
      auto& outgoing = buffer[static_cast<std::size_t>(u)];
      if (outgoing.empty()) continue;
      if (!route.reachable(u)) continue;  // Orphan: swept after the loop.
      const int p = route.parent(u);
      if (faults && !injector.alive(p)) {
        // Dead next-hop and no repair (self-healing off): the node keeps
        // retrying into silence and the whole batch is stranded.
        for (const auto& r : outgoing) {
          if (tel != nullptr) tel->count_lost_crash(r.source);
          emit_loss(r, u, -1);
        }
        lost_crash += static_cast<int>(outgoing.size());
        outgoing.clear();
        moved = true;
        continue;
      }
      const double bytes = static_cast<double>(outgoing.size()) *
                               IsolineReport::kWireBytes +
                           options_.header_bytes;
      const auto lvl = static_cast<std::size_t>(route.level(u));
      if (lvl >= level_bottleneck.size()) level_bottleneck.resize(lvl + 1, 0.0);
      level_bottleneck[lvl] = std::max(level_bottleneck[lvl], bytes);
      const Channel::Transfer transfer = channel.transfer(u, p, bytes, ledger);
      report_bytes += bytes;
      if (options_.record_transmissions)
        transmission_log.push_back({u, p, bytes, route.level(u)});
      if (transfer.delivered) {
        // Advance each report one hop before handing the batch on, so the
        // copies the filter keeps in the parent's inbox already carry the
        // incremented hop count. Relay credit goes to the forwarding node
        // (not the source re-sending its own report at hop 1).
        for (auto& r : outgoing) {
          ++r.hops;
          if (impaired)
            latency_by_id[static_cast<std::size_t>(r.id)] +=
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
        if (query.enable_filtering) {
          // The per-hop filter work is its own phase nested inside the
          // convergecast: its compute charges (and per-report drop events)
          // are attributed to filtering, not routing.
          const obs::PhaseTimer filter_timer(obs::kPhaseFilter);
          const std::size_t kept_before = inbox.size();
          double ops = 0.0;
          filter.merge(inbox, outgoing, &ops, p);
          ledger.compute(p, ops);
          filtered += static_cast<int>(outgoing.size() -
                                       (inbox.size() - kept_before));
        } else {
          inbox.insert(inbox.end(), outgoing.begin(), outgoing.end());
        }
      } else {
        for (const auto& r : outgoing) {
          if (tel != nullptr) tel->count_lost_channel(r.source);
          emit_loss(r, u, p);
        }
        lost_channel += static_cast<int>(outgoing.size());
      }
      outgoing.clear();
      moved = true;
    }
  }
  // Fire any faults scheduled after the last report hop, then account
  // every report still stuck at a non-sink node (orphans the repair could
  // not re-attach): nothing is dropped silently.
  apply_faults(1.0);
  for (int v = 0; v < n; ++v) {
    if (v == route.sink()) continue;
    auto& stuck = buffer[static_cast<std::size_t>(v)];
    for (const auto& r : stuck) {
      if (tel != nullptr) tel->count_lost_crash(r.source);
      emit_loss(r, v, -1);
    }
    lost_crash += static_cast<int>(stuck.size());
    stuck.clear();
  }
  route_timer.stop();
  obs::count("reports.generated", generated);
  if (filtered > 0) obs::count("reports.filtered", filtered);
  if (lost_channel > 0) obs::count("reports.lost_channel", lost_channel);
  if (lost_crash > 0) obs::count("reports.lost_crash", lost_crash);
  if (repairs > 0) obs::count("route.repairs", repairs);
  if (repair_bytes > 0.0) obs::count("route.repair_bytes", repair_bytes);

  // Copy the sink's slot out of the arena (O(sqrt(n) * levels) reports)
  // before the arena dies with this scope.
  const ReportVec& sink_slot = buffer[static_cast<std::size_t>(route.sink())];
  std::vector<IsolineReport> sink_reports(sink_slot.begin(), sink_slot.end());
  if (tel != nullptr)
    for (const auto& r : sink_reports) tel->count_delivered(r.source);
  obs::count("reports.delivered", static_cast<double>(sink_reports.size()));
  ContourMap map = ContourMapBuilder(deployment.bounds(), options_.regulation)
                       .build(sink_reports, query.isolevels());
  IsoMapResult result{.sink_reports = std::move(sink_reports),
                      .map = std::move(map),
                      .transmissions = std::move(transmission_log)};
  result.isoline_node_count = static_cast<int>(distinct_nodes.size());
  result.generated_reports = generated;
  result.delivered_reports = static_cast<int>(result.sink_reports.size());
  result.filtered_reports = filtered;
  result.lost_channel_reports = lost_channel;
  result.lost_crash_reports = lost_crash;
  result.crashed_nodes = injector.crash_count();
  result.route_repairs = repairs;
  result.repair_traffic_bytes = repair_bytes;
  result.report_traffic_bytes = report_bytes;
  result.measurement_traffic_bytes = measurement_bytes;
  result.dissemination_traffic_bytes = dissemination_bytes;
  for (double slot : level_bottleneck) result.bottleneck_bytes += slot;
  if (impaired && !result.sink_reports.empty()) {
    double first = 0.0, last = 0.0, sum = 0.0;
    bool any = false;
    for (const auto& r : result.sink_reports) {
      const double lat = latency_by_id[static_cast<std::size_t>(r.id)];
      if (!any) {
        first = last = lat;
        any = true;
      } else {
        first = std::min(first, lat);
        last = std::max(last, lat);
      }
      sum += lat;
    }
    result.e2e_first_latency_s = first;
    result.e2e_last_latency_s = last;
    result.e2e_mean_latency_s =
        sum / static_cast<double>(result.sink_reports.size());
    obs::gauge("latency.e2e_first_s", result.e2e_first_latency_s);
    obs::gauge("latency.e2e_last_s", result.e2e_last_latency_s);
    obs::gauge("latency.e2e_mean_s", result.e2e_mean_latency_s);
  }
  return result;
}

}  // namespace isomap
