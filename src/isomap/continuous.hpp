#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "isomap/contour_map.hpp"
#include "isomap/protocol.hpp"
#include "isomap/regression.hpp"

namespace isomap {

/// Which caching policy drives ContinuousMapper's single round path.
/// Both produce bitwise-identical outputs (RoundResult, ledger charges,
/// sink table, per-level contours, observability counters other than
/// the continuous.* diagnostics): a round with its caches dropped is the
/// same code as a round with every input changed. Both are checked in
/// tests/continuous_incremental_test.cpp against references in
/// tests/oracles that share no code with the round path (the full-scan
/// Definition 3.1 evaluation, a serial uncached map build and the
/// array-of-structs plane fit), and a cold round against
/// IsoMapProtocol::run's sink reports. The enumerator values are part
/// of the run-capsule wire format. See docs/PERFORMANCE.md ("Incremental
/// continuous mapping").
enum class ContinuousEngine {
  /// Cold rounds: the mapper drops its caches at the top of every round,
  /// so every node re-evaluates Definition 3.1, every selected node
  /// refits its regression, and every isolevel's contour region is
  /// rebuilt. The baseline bench/ext_continuous measures the cached
  /// policy against; scenario JSON spells it "oracle".
  kOracle,
  /// Dirty-set recomputation: per-round cost scales with the reading
  /// delta between rounds, not with the deployment size (the default).
  kIncremental,
};

/// Options for the continuous-mapping extension.
struct ContinuousOptions {
  IsoMapOptions base;

  /// A still-selected isoline node re-reports only when its estimated
  /// gradient direction rotated by more than this many degrees since its
  /// last report (temporal suppression).
  double gradient_refresh_deg = 15.0;

  /// Bytes of a withdrawal message (level + node position reference).
  double withdraw_bytes = 4.0;

  /// Bytes of the per-round 1-hop value beacon every alive node emits so
  /// its neighbours can evaluate Definition 3.1 each round.
  double beacon_bytes = 2.0;

  /// Soft-state expiry: a sink-table entry not refreshed for this many
  /// rounds is dropped (covers nodes that died without withdrawing).
  /// Surviving suppressed nodes send a keep-alive refresh when their
  /// entry is older than half this horizon. 0 disables expiry (the sink
  /// then trusts withdrawals alone).
  int stale_rounds = 0;

  /// Caching policy; outputs are engine-independent bit for bit.
  ContinuousEngine engine = ContinuousEngine::kIncremental;
};

/// The counters of one continuous round, declared once: RoundResult
/// carries them, and the run capsule's RoundOutputs stores them.
struct RoundCounters {
  int adds = 0;        ///< Newly selected (node, level) pairs reported.
  int refreshes = 0;   ///< Re-reports due to gradient rotation.
  int withdrawals = 0; ///< Deselected pairs withdrawn.
  int suppressed = 0;  ///< Still-selected pairs that stayed silent.
  int keepalives = 0;  ///< Soft-state refreshes of unchanged entries.
  int expired = 0;     ///< Sink entries dropped by soft-state expiry.
  int active_reports = 0;            ///< Sink table size after the round.
  double delta_traffic_bytes = 0.0;  ///< Multi-hop add/refresh/withdraw bytes.
  double beacon_traffic_bytes = 0.0; ///< 1-hop beacon bytes.
};

/// Per-round outcome of the continuous mapper.
struct RoundResult : RoundCounters {
  ContourMap map;  ///< Sink map after the round.
};

/// Continuous contour mapping over an evolving field — the natural
/// extension of the paper's one-shot protocol toward its Huanghua
/// deployment goal (continuous siltation monitoring) and the isoline
/// continuous-mapping line of related work it cites.
///
/// Instead of re-running the full protocol every round, nodes keep their
/// last report and transmit *deltas*: a report when they become isoline
/// nodes or when their gradient estimate rotates beyond a threshold, and
/// a small withdrawal when they stop being isoline nodes. The sink keeps
/// a report table, applies the spatial in-network filter at map-build
/// time, and rebuilds the contour map after each round.
///
/// Traffic accounting: delta messages are routed hop by hop over the
/// tree; every alive node additionally beacons its reading once per
/// round to its 1-hop neighbours (needed to evaluate Def. 3.1).
///
/// Simulation cost: with the default incremental engine a round's CPU
/// cost scales with the set of *changed* readings — nodes whose
/// Definition 3.1 inputs are unchanged reuse their cached selection,
/// regressions reuse cached sufficient statistics, and only isolevels
/// whose post-filter report set changed rebuild their contour region
/// (in parallel, under the exec determinism contract). The modelled
/// node costs charged to the ledger are unaffected: a real node still
/// pays for its per-round evaluation, so energy accounting is identical
/// to a cold round's.
class ContinuousMapper {
 public:
  /// Throws std::invalid_argument, before any round has charged anything,
  /// when base.query.regression_hops != 1 (the fit caches hold 1-hop
  /// neighbourhoods), when gradient_refresh_deg, withdraw_bytes or
  /// beacon_bytes is non-finite or negative, or when stale_rounds < 0.
  ContinuousMapper(ContinuousOptions options, const Deployment& deployment,
                   const CommGraph& graph, const RoutingTree& tree);

  /// Run one mapping round against the current field state. Sensing,
  /// selection, regression, delta generation and sink update happen in
  /// order; all node costs are charged to `ledger`.
  RoundResult round(const ScalarField& field_now, Ledger& ledger);

  /// Run one round from pre-sensed per-node readings (indexed by node
  /// id; dead nodes' entries are ignored — pass 0.0). This is the
  /// primitive the field overload wraps after sampling, and the
  /// injection point capsule replay uses to re-feed recorded readings
  /// (see sim/run_capsule.hpp). Size must equal the deployment's.
  RoundResult round(const std::vector<double>& readings, Ledger& ledger);

  /// Current number of (node, level) entries at the sink.
  int sink_table_size() const { return sink_count_; }

  /// Swap in a rebuilt topology (after node failures). Node memory and
  /// the sink table are preserved; dead nodes' stale entries age out via
  /// soft-state expiry (set ContinuousOptions::stale_rounds) since a dead
  /// node cannot withdraw. All caches are dropped (drop_caches()): the
  /// next round re-evaluates every node.
  void set_topology(const Deployment& deployment, const CommGraph& graph,
                    const RoutingTree& tree);

  /// One sink-table entry as dumped by sink_dump().
  struct SinkDumpEntry {
    int node = -1;
    int level = -1;  ///< Isolevel index.
    IsolineReport report;
    int last_update = 0;
  };

  /// Full sink-table dump in (node, level) order — the exact comparison
  /// surface the engine equivalence tests diff.
  std::vector<SinkDumpEntry> sink_dump() const;

  /// Per-level round fingerprints: fingerprint_reports() of each
  /// isolevel's post-filter report set as of the last round() call, in
  /// isolevel order (empty before the first round). Engine-independent —
  /// both engines record the identical values — and the exact per-level
  /// cache key the map service builds response keys from: a level whose
  /// fingerprint is unchanged since a cached response was built serves
  /// that response without recomputation (see docs/SERVICE.md).
  const std::vector<std::uint64_t>& level_fingerprints() const {
    return last_fingerprints_;
  }

  /// The current sink table flattened to the post-filter report list, in
  /// the exact (node, level) order and with the exact filter decisions
  /// round() feeds its map build. ContourMapBuilder::build over this list
  /// reproduces the last round's map bit for bit — the service's oracle
  /// mode rebuilds from it and diffs the bytes. Emits no obs phases;
  /// round() times the filter around its call.
  std::vector<IsolineReport> post_filter_reports() const;

 private:
  /// Flat node-side memory slot: last reported gradient per
  /// (node, level), keyed node * num_levels + level. Flat-vector lex
  /// iteration order matches the former std::map<pair<int,int>> exactly.
  struct MemorySlot {
    bool present = false;
    Vec2 gradient{};
  };

  /// Flat sink-side slot with the soft-state timestamp.
  struct SinkSlot {
    bool present = false;
    IsolineReport report;
    int last_update = 0;
  };

  /// Cached Definition 3.1 outcome for one node: admitted level indices
  /// and candidate count (the op charge lives in sel_ops_). Reused
  /// verbatim while the node's selection inputs are provably unchanged.
  struct SelectionCache {
    std::vector<int> levels;
    int candidates = 0;
  };

  std::size_t slot(int node, int level) const {
    return static_cast<std::size_t>(node) *
               static_cast<std::size_t>(num_levels_) +
           static_cast<std::size_t>(level);
  }

  double route_bytes(int from, double bytes, Ledger& ledger) const;

  /// Size the flat tables / caches for the current deployment; clears
  /// all state if the node count changed.
  void ensure_tables();

  /// Forget every cache (selection, fits, level regions, the selection
  /// aggregates) but keep node memory and the sink table. The next round
  /// then evaluates every node and rebuilds every level while repriming.
  /// The cold caching policy calls this at the top of every round.
  void drop_caches();

  /// Phase 1: compute the per-node selection dirty set (dirty_list_)
  /// and invalidate fit caches from the bitwise reading deltas, in two
  /// parallel passes over node blocks: each node writes its own delta
  /// flags, then pulls its neighbours'. Returns the number of nodes that
  /// must re-evaluate Definition 3.1.
  int mark_dirty(const std::vector<double>& readings);

  /// Gradient for a selected node this round (memoised per round), from
  /// the node's fit record, which the round's pre-pass has primed and
  /// refit. Returns nullopt on a degenerate fit. Replays the fit's
  /// metrics and charges its ops to `ledger` on every call.
  std::optional<Vec2> gradient_for(int node, Ledger& ledger);

  ContinuousOptions options_;
  const Deployment* deployment_;
  const CommGraph* graph_;
  const RoutingTree* tree_;
  std::vector<double> isolevels_;
  int num_levels_ = 0;
  int round_counter_ = 0;

  /// Flat (node, level) state tables, plus sorted lists of the occupied
  /// slot keys so per-round bookkeeping walks the (small) active set
  /// instead of scanning all n x L slots. Ascending key order equals the
  /// flat-scan order, so report extraction, withdrawal and expiry emit
  /// in exactly the order the plain table scans would.
  std::vector<MemorySlot> node_memory_;
  std::vector<SinkSlot> sink_table_;
  std::vector<std::size_t> memory_keys_;  ///< Occupied node_memory_ slots.
  std::vector<std::size_t> sink_keys_;    ///< Occupied sink_table_ slots.
  int sink_count_ = 0;
  /// Per-level fingerprints of the last round's post-filter report sets
  /// (see level_fingerprints()).
  std::vector<std::uint64_t> last_fingerprints_;

  /// Round caches. caches_primed_ is false after construction and
  /// drop_caches(); the next round then evaluates every node while
  /// populating the caches.
  bool caches_primed_ = false;
  std::vector<double> prev_readings_;
  std::vector<SelectionCache> selection_cache_;
  /// Per-node plane fits over the node and its 1-hop neighbours: the
  /// positions are primed once per topology, the fit redone only when a
  /// sample reading changed.
  std::vector<PlaneFitRecord> fit_cache_;
  /// The sink build's per-level cache: a level whose post-filter report
  /// set is unchanged keeps its region.
  std::vector<CachedLevel> level_cache_;

  /// Persistent selection aggregates so a clean round emits its selected
  /// set in O(|selected|) instead of rescanning every node: the sorted
  /// list of nodes with admitted levels, the per-node op charges (fed to
  /// Ledger::compute_all) and the summed candidate count. Maintained at
  /// dirty-node re-evaluation; reset with the other caches.
  std::vector<int> selected_nodes_;
  std::vector<double> sel_ops_;
  long long candidates_total_ = 0;

  /// Cached level_rank of each node's previous reading, so mark_dirty
  /// ranks only the new value. Valid whenever caches_primed_ is true.
  std::vector<std::pair<int, int>> rank_cache_;

  /// The regression metric replay, reset at the top of every round.
  FitMetrics fit_metrics_;

  /// Per-round scratch (members to avoid per-round allocation).
  std::vector<std::uint8_t> delta_flags_;     ///< mark_dirty's pass-1 flags.
  std::vector<std::vector<int>> block_dirty_;  ///< Dirty nodes per block.
  std::vector<int> dirty_list_;  ///< Alive dirty nodes, ascending.
  std::vector<int> refit_nodes_;  ///< Stale fits to redo, ascending.
  std::vector<MemorySlot> now_memory_;
  std::vector<std::size_t> now_keys_;  ///< Slots written this round.
  std::vector<int> grad_round_;   ///< Per-node round stamp of grad_value_.
  std::vector<Vec2> grad_value_;  ///< Per-round gradient memo.
};

}  // namespace isomap
