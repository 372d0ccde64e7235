#include "isomap/convergecast.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "isomap/round_arena.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace isomap {
namespace {

/// Inboxes for the nodes a round's reports pass through: a node -> slot
/// index in front of arena-backed kept sets of report indices. Slots live
/// in a deque, so a reference to one stays valid while another is created
/// (a sender's batch while its parent's slot is added).
class ReportSlots {
 public:
  explicit ReportSlots(int n) : slot_of_(static_cast<std::size_t>(n), -1) {}

  KeptSet* find(int node) {
    const int s = slot_of_[static_cast<std::size_t>(node)];
    return s < 0 ? nullptr : &inboxes_[static_cast<std::size_t>(s)];
  }

  /// `node`'s inbox, created empty on first use.
  KeptSet& get(int node) {
    int& s = slot_of_[static_cast<std::size_t>(node)];
    if (s < 0) {
      s = static_cast<int>(inboxes_.size());
      inboxes_.emplace_back(arena_);
      nodes_.push_back(node);
    }
    return inboxes_[static_cast<std::size_t>(s)];
  }

  /// Nodes that own a slot, in slot-creation order.
  const std::vector<int>& nodes() const { return nodes_; }

 private:
  RoundArena arena_;
  std::vector<int> slot_of_;
  std::deque<KeptSet> inboxes_;
  std::vector<int> nodes_;
};

class Convergecast {
 public:
  Convergecast(std::span<const IsolineReport> generated,
               const RoutingTree& tree, Channel& channel, Ledger& ledger,
               const ConvergecastOptions& options)
      : route_(&tree),
        channel_(channel),
        ledger_(ledger),
        options_(options),
        table_(generated.begin(), generated.end()),
        slots_(tree.size()),
        level_bottleneck_(static_cast<std::size_t>(tree.depth()) + 1, 0.0) {
    // Reports stay in table_ for the whole round; inboxes and hops move
    // their indices. With the filter on, every inbox is chained through
    // one index, a source's own reports included (unfiltered).
    if (options_.filter != nullptr) index_.emplace(table_);
    for (int id = 0; id < static_cast<int>(table_.size()); ++id) {
      KeptSet& slot = slots_.get(table_[static_cast<std::size_t>(id)].source);
      if (index_)
        index_->keep(slot, id);
      else
        slot.append(std::span<const int>(&id, 1));
    }
    if (channel_.impaired()) out_.latency_by_id.assign(generated.size(), 0.0);
    // Seed the telemetry hop map from the convergecast tree; repair()
    // refreshes it whenever the tree rewires mid-run.
    if (tel_ != nullptr)
      for (int v = 0; v < tree.size(); ++v) tel_->set_hops(v, tree.level(v));
  }

  /// Static tree: visit only the nodes holding reports, level by level.
  /// Level L's list holds the sources at L plus every parent a level-L+1
  /// node sent to; sorted by id it is post_order() restricted to the
  /// nodes with a buffer, so every charge, channel draw, filter merge
  /// and trace event keeps its place in the sequence.
  void run_frontier() {
    const RoutingTree& route = *route_;
    std::vector<int> sources;
    for (int v : slots_.nodes())
      if (route.level(v) > 0) sources.push_back(v);
    std::sort(sources.begin(), sources.end(), [&](int a, int b) {
      const int la = route.level(a), lb = route.level(b);
      return la != lb ? la > lb : a < b;
    });
    std::vector<int> frontier, parents;
    std::size_t next_source = 0;
    for (int level = route.depth(); level >= 1; --level) {
      while (next_source < sources.size() &&
             route.level(sources[next_source]) == level)
        frontier.push_back(sources[next_source++]);
      std::sort(frontier.begin(), frontier.end());
      parents.clear();
      for (int u : frontier) {
        KeptSet& outgoing = *slots_.find(u);
        if (outgoing.empty()) continue;
        const int p = route.parent(u);
        if (slots_.find(p) == nullptr) parents.push_back(p);
        hop(u, p, outgoing, slots_.get(p));
      }
      std::swap(frontier, parents);
    }
  }

  /// Faults: whole post-order epochs with the injector advancing along
  /// them. After a repair, reports re-routed through an already-visited
  /// node wait for the next epoch (their new ancestors' TDMA slots have
  /// passed), so epochs repeat until no report moves. Every parent is
  /// strictly one level below its child — in the repaired tree too — so
  /// each epoch moves every surviving report at least one level down
  /// and the loop terminates within `depth` epochs.
  void run_epochs(const ConvergecastFaults& faults) {
    FaultInjector& injector = faults.injector;
    // The repair rewires a private copy of the tree.
    RoutingTree& healed = healed_.emplace(*route_);
    route_ = &healed;

    // Fire every fault event due at `progress`: reports buffered at a
    // dying node die with it, then (when self-healing) the tree repairs
    // itself — orphans beacon and re-attach, charged to the ledger under
    // their own phase so repair energy is separable from report routing.
    // Returns how many orphans the repair re-attached so the walk can
    // schedule another epoch for their stranded reports even when
    // nothing else moved this epoch.
    const auto apply_faults = [&](double progress) -> int {
      const std::vector<int> died = injector.advance(progress);
      if (died.empty()) return 0;
      for (int c : died)
        if (KeptSet* stranded = slots_.find(c)) lose_crash(*stranded, c);
      if (!faults.self_healing) return 0;
      const obs::PhaseTimer repair_timer(obs::kPhaseRepair);
      const RoutingTree::RepairReport rep =
          healed.repair(faults.graph, injector.alive_mask(), &ledger_);
      out_.repairs += rep.reattached;
      out_.repair_bytes += rep.bytes;
      return rep.reattached;
    };

    const double total_units =
        static_cast<double>(std::max(1, healed.reachable_count() - 1));
    double units_done = 0.0;
    bool moved = true;
    int epochs = 0;
    while (moved && epochs <= healed.size()) {
      moved = false;
      ++epochs;
      const std::vector<int> order = healed.post_order();  // Copy: repair
                                                           // rewrites it.
      for (int u : order) {
        if (u == healed.sink()) continue;
        // A repair may re-attach orphans holding reports; give them an
        // epoch even if no other buffer moves in this one.
        if (apply_faults(std::min(1.0, units_done / total_units)) > 0)
          moved = true;
        units_done += 1.0;
        if (!injector.alive(u)) continue;  // Died; buffer already lost.
        KeptSet* outgoing = slots_.find(u);
        if (outgoing == nullptr || outgoing->empty()) continue;
        if (!healed.reachable(u)) continue;  // Orphan: swept in finish().
        const int p = healed.parent(u);
        moved = true;
        if (!injector.alive(p)) {
          // Dead next-hop and no repair (self-healing off): the node keeps
          // retrying into silence and the whole batch is stranded.
          lose_crash(*outgoing, u);
          continue;
        }
        hop(u, p, *outgoing, slots_.get(p));
      }
    }
    // Fire any faults scheduled after the last report hop.
    apply_faults(1.0);
  }

  /// Account every report still held below the sink (orphans the repair
  /// could not re-attach, sources off the tree) as a crash loss, in
  /// ascending node order, and hand over the sink's reports in arrival
  /// order.
  ConvergecastResult finish() {
    const int sink = route_->sink();
    std::vector<int> stuck;
    for (int v : slots_.nodes())
      if (v != sink && !slots_.find(v)->empty()) stuck.push_back(v);
    std::sort(stuck.begin(), stuck.end());
    for (int v : stuck) lose_crash(*slots_.find(v), v);
    if (const KeptSet* at_sink = slots_.find(sink)) {
      out_.sink_reports.reserve(at_sink->size());
      for (const int id : at_sink->ids())
        out_.sink_reports.push_back(table_[static_cast<std::size_t>(id)]);
    }
    for (double slot : level_bottleneck_) out_.bottleneck_bytes += slot;
    return std::move(out_);
  }

 private:
  /// The one per-hop body: u sends its whole batch to p in one channel
  /// transfer. On delivery every report advances one hop into p's inbox
  /// (through the filter when on); otherwise the batch is lost. Leaves
  /// `outgoing` empty.
  void hop(int u, int p, KeptSet& outgoing, KeptSet& inbox) {
    const int level = route_->level(u);
    const double bytes =
        static_cast<double>(outgoing.size()) * IsolineReport::kWireBytes +
        options_.header_bytes;
    const auto lvl = static_cast<std::size_t>(level);
    if (lvl >= level_bottleneck_.size()) level_bottleneck_.resize(lvl + 1, 0.0);
    level_bottleneck_[lvl] = std::max(level_bottleneck_[lvl], bytes);
    const Channel::Transfer transfer = channel_.transfer(u, p, bytes, ledger_);
    out_.report_bytes += bytes;
    if (options_.record_transmissions)
      out_.transmissions.push_back({u, p, bytes, level});
    if (!transfer.delivered) {
      for (const int id : outgoing.ids()) {
        const IsolineReport& r = table_[static_cast<std::size_t>(id)];
        if (tel_ != nullptr) tel_->count_lost_channel(r.source);
        emit_loss(r, u, p);
      }
      out_.lost_channel += static_cast<int>(outgoing.size());
      outgoing.clear();
      return;
    }
    // Advance each report one hop in the table; the batch then moves to
    // the parent as indices. Relay credit goes to the forwarding node
    // (not the source re-sending its own report at hop 1).
    const bool impaired = channel_.impaired();
    for (const int id : outgoing.ids()) {
      IsolineReport& r = table_[static_cast<std::size_t>(id)];
      ++r.hops;
      if (impaired)
        out_.latency_by_id[static_cast<std::size_t>(r.id)] +=
            transfer.latency_s;
      if (tel_ != nullptr && r.source != u) tel_->count_relayed(u);
      if (span_sink_ != nullptr) {
        obs::TraceEvent event;
        event.kind = "span";
        event.phase = obs::current_phase();
        event.node = u;
        event.peer = p;
        event.report = r.id;
        event.hop = r.hops;
        event.isolevel = r.isolevel;
        event.latency_s = impaired ? transfer.latency_s : -1.0;
        span_sink_->emit(event);
      }
    }
    if (options_.filter != nullptr) {
      // The per-hop filter work is its own phase nested inside the
      // convergecast: its compute charges (and per-report drop events)
      // are attributed to filtering, not routing.
      const obs::PhaseTimer filter_timer(obs::kPhaseFilter);
      const std::size_t kept_before = inbox.size();
      double ops = 0.0;
      options_.filter->merge(*index_, inbox, outgoing.ids(), &ops, p);
      ledger_.compute(p, ops);
      out_.filtered +=
          static_cast<int>(outgoing.size() - (inbox.size() - kept_before));
    } else {
      inbox.append(outgoing.ids());
    }
    outgoing.clear();
  }

  /// Reports that die in place at `at` (a crash, a dead next hop, an
  /// orphan): counted, traced and dropped.
  void lose_crash(KeptSet& batch, int at) {
    for (const int id : batch.ids()) {
      const IsolineReport& r = table_[static_cast<std::size_t>(id)];
      if (tel_ != nullptr) tel_->count_lost_crash(r.source);
      emit_loss(r, at, -1);
    }
    out_.lost_crash += static_cast<int>(batch.size());
    batch.clear();
  }

  /// One "loss" trace event per dead report. Channel losses name the
  /// next hop in `peer`; crash losses leave it -1.
  void emit_loss(const IsolineReport& r, int at, int next_hop) const {
    if (span_sink_ == nullptr) return;
    obs::TraceEvent event;
    event.kind = "loss";
    event.phase = obs::current_phase();
    event.node = at;
    event.peer = next_hop;
    event.report = r.id;
    event.hop = r.hops;
    event.isolevel = r.isolevel;
    span_sink_->emit(event);
  }

  const RoutingTree* route_;
  std::optional<RoutingTree> healed_;
  Channel& channel_;
  Ledger& ledger_;
  const ConvergecastOptions& options_;
  // Flight-recorder context, resolved once per run: the per-node
  // telemetry table gets report counters and hop distances, the trace
  // sink one "span" event per report hop (keyed by the report's causal
  // id) so the full source->relays->sink path reconstructs from the trace.
  obs::NodeTelemetry* const tel_ = obs::telemetry();
  obs::TraceSink* const span_sink_ = obs::trace();
  std::vector<IsolineReport> table_;  ///< The round's reports, by index.
  std::optional<FilterIndex> index_;  ///< Only with the filter on.
  ReportSlots slots_;
  std::vector<double> level_bottleneck_;
  ConvergecastResult out_;
};

}  // namespace

ConvergecastResult convergecast(std::span<const IsolineReport> generated,
                                const RoutingTree& tree, Channel& channel,
                                Ledger& ledger,
                                const ConvergecastOptions& options,
                                const ConvergecastFaults* faults) {
  Convergecast run(generated, tree, channel, ledger, options);
  if (faults != nullptr)
    run.run_epochs(*faults);
  else
    run.run_frontier();
  return run.finish();
}

}  // namespace isomap
