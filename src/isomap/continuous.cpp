#include "isomap/continuous.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "exec/exec.hpp"
#include "isomap/filter.hpp"
#include "isomap/node_selection.hpp"
#include "isomap/regression.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

/// Nodes per parallel block of mark_dirty's passes.
constexpr std::size_t kMarkDirtyBlock = 4096;
/// Nodes per parallel block of the round's refit pre-pass.
constexpr std::size_t kRefitBlock = 64;

/// mark_dirty's per-node delta flags.
constexpr std::uint8_t kReadingChanged = 1;  ///< Reading bits changed.
constexpr std::uint8_t kRankChanged = 2;     ///< level_rank changed.
constexpr std::uint8_t kOwnMatters = 4;      ///< Own Def. 3.1 inputs changed.

/// Bit-pattern equality: the incremental engine's notion of "unchanged".
/// Stricter than `==` (distinguishes +0.0 from -0.0), so a cached result
/// is only ever reused when a recomputation would consume the exact same
/// bits.
inline std::uint64_t double_bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}
inline bool bits_equal(double a, double b) {
  return double_bits(a) == double_bits(b);
}

/// True when some level's ε-band candidacy differs between the two
/// readings. It can only flip near the band edges, so it is compared over
/// the union of both readings' conservative windows (one extra level on
/// each side, matching evaluate_node_selection's widening).
bool candidacy_changed(const std::vector<double>& levels, double old_v,
                       double new_v, double eps) {
  auto lo = std::lower_bound(levels.begin(), levels.end(),
                             std::min(old_v, new_v) - eps);
  auto hi = std::upper_bound(levels.begin(), levels.end(),
                             std::max(old_v, new_v) + eps);
  if (lo != levels.begin()) --lo;
  if (hi != levels.end()) ++hi;
  for (auto it = lo; it != hi; ++it)
    if (is_candidate(old_v, *it, eps) != is_candidate(new_v, *it, eps))
      return true;
  return false;
}

}  // namespace

ContinuousMapper::ContinuousMapper(ContinuousOptions options,
                                   const Deployment& deployment,
                                   const CommGraph& graph,
                                   const RoutingTree& tree)
    : options_(std::move(options)),
      deployment_(&deployment),
      graph_(&graph),
      tree_(&tree),
      isolevels_(options_.base.query.isolevels()),
      num_levels_(static_cast<int>(isolevels_.size())) {
  // Reject bad options here, before a round has charged anything.
  if (options_.base.query.regression_hops != 1)
    throw std::invalid_argument(
        "ContinuousMapper: regression_hops must be 1 (the fit caches hold "
        "1-hop neighbourhoods)");
  const auto require_finite_non_negative = [](double v, const char* name) {
    if (!std::isfinite(v) || v < 0.0)
      throw std::invalid_argument(std::string("ContinuousMapper: ") + name +
                                  " must be finite and >= 0");
  };
  require_finite_non_negative(options_.gradient_refresh_deg,
                              "gradient_refresh_deg");
  require_finite_non_negative(options_.withdraw_bytes, "withdraw_bytes");
  require_finite_non_negative(options_.beacon_bytes, "beacon_bytes");
  if (options_.stale_rounds < 0)
    throw std::invalid_argument("ContinuousMapper: stale_rounds must be >= 0");
  ensure_tables();
}

void ContinuousMapper::set_topology(const Deployment& deployment,
                                    const CommGraph& graph,
                                    const RoutingTree& tree) {
  deployment_ = &deployment;
  graph_ = &graph;
  tree_ = &tree;
  ensure_tables();
  // Neighbour sets, liveness and (possibly) bounds changed.
  drop_caches();
}

void ContinuousMapper::drop_caches() {
  caches_primed_ = false;
  for (auto& sc : selection_cache_) sc = SelectionCache{};
  for (auto& fc : fit_cache_) fc = PlaneFitRecord{};
  for (auto& lc : level_cache_) lc = CachedLevel{};
  selected_nodes_.clear();
  std::fill(sel_ops_.begin(), sel_ops_.end(), 0.0);
  candidates_total_ = 0;
}

void ContinuousMapper::ensure_tables() {
  const auto n = static_cast<std::size_t>(deployment_->size());
  const std::size_t slots = n * static_cast<std::size_t>(num_levels_);
  if (node_memory_.size() != slots) {
    node_memory_.assign(slots, MemorySlot{});
    now_memory_.assign(slots, MemorySlot{});
    sink_table_.assign(slots, SinkSlot{});
    memory_keys_.clear();
    now_keys_.clear();
    sink_keys_.clear();
    sink_count_ = 0;
  }
  if (selection_cache_.size() != n) {
    selection_cache_.assign(n, SelectionCache{});
    fit_cache_.assign(n, PlaneFitRecord{});
    prev_readings_.assign(n, 0.0);
    delta_flags_.assign(n, 0);
    grad_round_.assign(n, -1);
    grad_value_.assign(n, Vec2{});
    selected_nodes_.clear();
    sel_ops_.assign(n, 0.0);
    candidates_total_ = 0;
    rank_cache_.assign(n, {0, 0});
    caches_primed_ = false;
  }
  if (level_cache_.size() != static_cast<std::size_t>(num_levels_))
    level_cache_.assign(static_cast<std::size_t>(num_levels_), CachedLevel{});
}

double ContinuousMapper::route_bytes(int from, double bytes,
                                     Ledger& ledger) const {
  // Walk the parent chain: the hops path_to_sink lists, in its order,
  // without building the list. An unreachable node has no parent, so it
  // routes nothing, as its empty path did.
  double total = 0.0;
  for (int u = from, up = tree_->parent(u); up != -1;
       u = up, up = tree_->parent(u)) {
    ledger.transmit(u, up, bytes);
    total += bytes;
  }
  return total;
}

int ContinuousMapper::mark_dirty(const std::vector<double>& readings) {
  const auto n = static_cast<std::size_t>(deployment_->size());
  const TileBlocks blocks{n, kMarkDirtyBlock};
  block_dirty_.resize(blocks.count());
  if (!caches_primed_) {
    exec::parallel_for_blocks(
        blocks, [&](std::size_t b, std::size_t begin, std::size_t end) {
          std::vector<int>& out = block_dirty_[b];
          out.clear();
          for (std::size_t u = begin; u < end; ++u) {
            rank_cache_[u] = level_rank(isolevels_, readings[u]);
            fit_cache_[u].valid = false;
            if (graph_->alive(static_cast<int>(u)))
              out.push_back(static_cast<int>(u));
          }
        });
  } else {
    const double eps = options_.base.query.epsilon();
    // Pass 1: each node's own delta flags, from its old and new reading.
    exec::parallel_for_blocks(blocks, [&](std::size_t, std::size_t begin,
                                          std::size_t end) {
      for (std::size_t u = begin; u < end; ++u) {
        const double old_v = prev_readings_[u];
        const double new_v = readings[u];
        if (bits_equal(old_v, new_v)) {
          delta_flags_[u] = 0;
          continue;
        }
        // Any bitwise change invalidates the regression fits the reading
        // feeds: its own and every 1-hop neighbour's.
        std::uint8_t flags = kReadingChanged;
        // Selection is coarser. Definition 3.1 consumes a reading only
        // through (a) its <,== relations to each level — the crossing
        // predicate, for the node itself and for each neighbour — and
        // (b) the node's own ε-band membership per level. A change that
        // alters neither relation set cannot change any admitted entry,
        // candidate count or modelled op charge.
        const auto new_rank = level_rank(isolevels_, new_v);
        if (rank_cache_[u] != new_rank)
          flags |= kRankChanged | kOwnMatters;
        else if (candidacy_changed(isolevels_, old_v, new_v, eps))
          flags |= kOwnMatters;
        rank_cache_[u] = new_rank;
        delta_flags_[u] = flags;
      }
    });
    // Pass 2: each node pulls its neighbours' flags. A neighbour's change
    // stales u's fit; a neighbour's rank change can flip u's crossing
    // predicate. Pulling over N(u) sees exactly what pushing over N(v)
    // would, because CommGraph adjacency is symmetric; every write is to
    // u's own slot.
    exec::parallel_for_blocks(
        blocks, [&](std::size_t b, std::size_t begin, std::size_t end) {
          std::vector<int>& out = block_dirty_[b];
          out.clear();
          for (std::size_t u = begin; u < end; ++u) {
            const int v = static_cast<int>(u);
            const std::uint8_t own = delta_flags_[u];
            bool fit_stale = (own & kReadingChanged) != 0;
            bool dirty = (own & kOwnMatters) != 0;
            for (const int nb : graph_->neighbour_span(v)) {
              if (fit_stale && dirty) break;
              const std::uint8_t f = delta_flags_[static_cast<std::size_t>(nb)];
              fit_stale = fit_stale || (f & kReadingChanged) != 0;
              dirty = dirty || (f & kRankChanged) != 0;
            }
            if (fit_stale) fit_cache_[u].valid = false;
            if (dirty && graph_->alive(v)) out.push_back(v);
          }
        });
  }
  // Blocks partition the ascending node range, so their lists concatenated
  // in block order ascend.
  dirty_list_.clear();
  for (const std::vector<int>& out : block_dirty_)
    dirty_list_.insert(dirty_list_.end(), out.begin(), out.end());
  return static_cast<int>(dirty_list_.size());
}

std::optional<Vec2> ContinuousMapper::gradient_for(int node, Ledger& ledger) {
  const auto u = static_cast<std::size_t>(node);
  if (grad_round_[u] == round_counter_) return grad_value_[u];

  const PlaneFitRecord& fc = fit_cache_[u];
  assert(fc.primed && fc.valid);
  // Replay a fresh fit's instrumentation and ledger charge, whether the
  // fit was redone this round or is reused. (A degenerate node is
  // replayed per selected entry, as a fresh refit per entry would charge.)
  fit_metrics_.record(fc.size(), fc.has_fit);
  ledger.compute(node, fc.ops);
  if (!fc.has_fit) return std::nullopt;
  grad_round_[u] = round_counter_;
  grad_value_[u] = fc.descent;
  return grad_value_[u];
}

RoundResult ContinuousMapper::round(const ScalarField& field_now,
                                    Ledger& ledger) {
  std::vector<double> readings;
  deployment_->sense(field_now, readings);
  return round(readings, ledger);
}

RoundResult ContinuousMapper::round(const std::vector<double>& readings,
                                    Ledger& ledger) {
  const int n = deployment_->size();
  if (static_cast<int>(readings.size()) != n)
    throw std::invalid_argument(
        "ContinuousMapper::round: readings size must equal the deployment");
  const ContourQuery& query = options_.base.query;
  ensure_tables();
  if (options_.engine == ContinuousEngine::kOracle) drop_caches();
  ++round_counter_;
  fit_metrics_ = FitMetrics{};  // The registry can change per round.

  // --- Beacon (readings were sensed by the caller). ---
  double beacon_bytes = 0.0;
  {
    const obs::PhaseTimer timer(obs::kPhaseDisseminate);
    beacon_bytes = ledger.broadcast_all(*graph_, options_.beacon_bytes);
  }

  // --- Selection (Def. 3.1) on the fresh readings. ---
  obs::PhaseTimer select_timer(obs::kPhaseSelect);
  std::vector<SelectionEntry> selected;
  // Emission already knows each entry's level index; carrying it parallel
  // to `selected` spares the route loop one binary search per entry.
  std::vector<int> selected_levels;
  const int dirty_nodes = mark_dirty(readings);
  obs::count("continuous.dirty_nodes", static_cast<double>(dirty_nodes));
  {
    // Re-evaluate Definition 3.1 only at the dirty nodes, through the
    // selection stage single-shot runs over every node; then update the
    // persistent selected-node list and the candidate total. select_nodes
    // records the dirty nodes with a candidate level, in dirty-list order
    // and with their op charges already in sel_ops_; every other dirty
    // node now selects nothing — clean nodes cost nothing here.
    const NodeSelections fresh = select_nodes(
        *graph_, readings, &dirty_list_, isolevels_, query.epsilon(), sel_ops_);
    candidates_total_ += fresh.candidates;
    std::size_t r = 0, off = 0;
    for (const int v : dirty_list_) {
      SelectionCache& sc = selection_cache_[static_cast<std::size_t>(v)];
      const bool was_selected = !sc.levels.empty();
      candidates_total_ -= sc.candidates;
      sc.candidates = 0;
      sc.levels.clear();
      if (r < fresh.nodes.size() && fresh.nodes[r].node == v) {
        const NodeSelection& rec = fresh.nodes[r++];
        sc.candidates = rec.candidates;
        const auto first =
            fresh.levels.begin() + static_cast<std::ptrdiff_t>(off);
        sc.levels.assign(first, first + rec.admitted);
        off += static_cast<std::size_t>(rec.admitted);
      }
      const bool now_selected = !sc.levels.empty();
      if (now_selected != was_selected) {
        const auto it = std::lower_bound(selected_nodes_.begin(),
                                         selected_nodes_.end(), v);
        if (now_selected)
          selected_nodes_.insert(it, v);
        else
          selected_nodes_.erase(it);
      }
    }
  }
  // Emit this round's selection — ascending (node, level), exactly the
  // order the full per-node sweep would produce.
  obs::TraceSink* const sink = obs::trace();
  for (const int v : selected_nodes_) {
    if (!graph_->alive(v)) continue;
    for (int idx : selection_cache_[static_cast<std::size_t>(v)].levels) {
      const double lambda = isolevels_[static_cast<std::size_t>(idx)];
      selected.push_back({v, lambda});
      selected_levels.push_back(idx);
      trace_selection(sink, v, lambda);
    }
  }
  if (candidates_total_ > 0)
    obs::count("select.candidates", static_cast<double>(candidates_total_));
  ledger.compute_all(*graph_, sel_ops_);

  select_timer.stop();

  RoundResult result{
      {}, ContourMap(deployment_->bounds(), std::vector<LevelRegion>{})};
  obs::PhaseTimer route_timer(obs::kPhaseReportRoute);
  const double refresh_rad = options_.gradient_refresh_deg * M_PI / 180.0;
  // now_memory_ still holds the round-before-last entries (the tables are
  // swapped, never scanned clean): clear exactly the occupied slots.
  for (const std::size_t key : now_keys_) now_memory_[key] = MemorySlot{};
  now_keys_.clear();

  // --- Regression + delta generation for currently selected pairs. ---
  // One regression per distinct node per round (shared across levels).
  // Stale fits are redone first, across the pool: each task writes only
  // its node's fit record, so the ordered loop below finds every fit
  // current and makes its charges and metric emissions in entry order.
  // `selected` ascends by node, so a node's entries are adjacent. Priming
  // allocates, so it stays on this thread: sample buffers allocated on
  // pool workers share their allocator arenas with the sink's level
  // regions, and the map's point queries ran about 4% slower.
  refit_nodes_.clear();
  for (const SelectionEntry& entry : selected) {
    const int v = entry.node;
    PlaneFitRecord& fc = fit_cache_[static_cast<std::size_t>(v)];
    if ((fc.primed && fc.valid) || !tree_->reachable(v) ||
        (!refit_nodes_.empty() && refit_nodes_.back() == v))
      continue;
    if (!fc.primed) fc.prime(*deployment_, v, graph_->neighbour_span(v));
    refit_nodes_.push_back(v);
  }
  exec::parallel_for_blocks(
      TileBlocks{refit_nodes_.size(), kRefitBlock},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const int v = refit_nodes_[i];
          fit_cache_[static_cast<std::size_t>(v)].refit(
              readings, v, graph_->neighbour_span(v));
        }
      });
  for (std::size_t si = 0; si < selected.size(); ++si) {
    const auto& entry = selected[si];
    if (!tree_->reachable(entry.node)) continue;
    const int level = selected_levels[si];
    const auto gradient_opt = gradient_for(entry.node, ledger);
    if (!gradient_opt) continue;
    const Vec2 gradient = *gradient_opt;
    const std::size_t key = slot(entry.node, level);
    now_memory_[key] = {true, gradient};
    now_keys_.push_back(key);  // `selected` ascends (node, level) => sorted.

    const MemorySlot prev = node_memory_[key];
    const bool is_new = !prev.present;
    // A bitwise-unchanged nonzero gradient cannot have rotated past any
    // non-negative threshold (angle_between of a vector with itself is
    // clamped to ~1e-8 rad), so skip the acos. Zero vectors fall through:
    // angle_between defines their angle as pi.
    const bool unchanged_dir = !is_new &&
                               bits_equal(prev.gradient.x, gradient.x) &&
                               bits_equal(prev.gradient.y, gradient.y) &&
                               (gradient.x != 0.0 || gradient.y != 0.0);
    const bool rotated =
        !is_new && !unchanged_dir &&
        angle_between(prev.gradient, gradient) > refresh_rad;
    // Soft-state keep-alive: refresh unchanged entries before the sink's
    // expiry horizon would drop them.
    bool keepalive = false;
    if (!is_new && !rotated && options_.stale_rounds > 0) {
      const SinkSlot& sink_slot = sink_table_[key];
      keepalive = !sink_slot.present ||
                  round_counter_ - sink_slot.last_update >=
                      std::max(1, options_.stale_rounds / 2);
    }
    if (is_new || rotated || keepalive) {
      result.delta_traffic_bytes +=
          route_bytes(entry.node, IsolineReport::kWireBytes, ledger);
      if (!sink_table_[key].present) {
        ++sink_count_;
        sink_keys_.insert(
            std::lower_bound(sink_keys_.begin(), sink_keys_.end(), key), key);
      }
      sink_table_[key] = {true,
                          {entry.isolevel,
                           deployment_->node(entry.node).reported_pos(),
                           gradient, entry.node},
                          round_counter_};
      if (is_new) ++result.adds;
      else if (rotated) ++result.refreshes;
      else ++result.keepalives;
    } else {
      ++result.suppressed;
    }
  }

  // --- Withdrawals for pairs that dropped out of the selection. Only an
  // alive, connected node can actually send one; a dead node's sink entry
  // lingers until soft-state expiry removes it. ---
  for (const std::size_t key : memory_keys_) {
    if (!node_memory_[key].present || now_memory_[key].present) continue;
    const int node =
        static_cast<int>(key / static_cast<std::size_t>(num_levels_));
    if (tree_->reachable(node) && graph_->alive(node)) {
      result.delta_traffic_bytes +=
          route_bytes(node, options_.withdraw_bytes, ledger);
      if (sink_table_[key].present) {
        sink_table_[key] = SinkSlot{};
        sink_keys_.erase(
            std::lower_bound(sink_keys_.begin(), sink_keys_.end(), key));
        --sink_count_;
      }
      ++result.withdrawals;
    }
  }
  std::swap(node_memory_, now_memory_);
  std::swap(memory_keys_, now_keys_);

  // Soft-state expiry: drop sink entries that out-lived the horizon (the
  // reporter died or was partitioned and could not withdraw).
  if (options_.stale_rounds > 0) {
    std::size_t kept = 0;
    for (const std::size_t key : sink_keys_) {
      SinkSlot& sink_slot = sink_table_[key];
      if (round_counter_ - sink_slot.last_update >= options_.stale_rounds) {
        node_memory_[key] = MemorySlot{};
        sink_slot = SinkSlot{};
        --sink_count_;
        ++result.expired;
      } else {
        sink_keys_[kept++] = key;
      }
    }
    sink_keys_.resize(kept);
  }

  route_timer.stop();

  // --- Sink rebuild: spatial filter, then map construction. ---
  std::optional<obs::PhaseTimer> filter_timer;
  if (query.enable_filtering) filter_timer.emplace(obs::kPhaseFilter);
  const std::vector<IsolineReport> reports = post_filter_reports();
  filter_timer.reset();
  result.active_reports = sink_count_;
  result.beacon_traffic_bytes = beacon_bytes;
  std::size_t levels_rebuilt = 0;
  const ContourMapBuilder builder(deployment_->bounds(),
                                  options_.base.regulation);
  result.map =
      builder.build(reports, isolevels_, level_cache_, &levels_rebuilt);
  obs::count("continuous.levels_rebuilt", static_cast<double>(levels_rebuilt));
  last_fingerprints_.resize(level_cache_.size());
  for (std::size_t li = 0; li < level_cache_.size(); ++li)
    last_fingerprints_[li] = level_cache_[li].fingerprint;
  prev_readings_ = readings;
  caches_primed_ = true;
  return result;
}

std::vector<IsolineReport> ContinuousMapper::post_filter_reports() const {
  std::vector<IsolineReport> reports;
  reports.reserve(static_cast<std::size_t>(sink_count_));
  for (const std::size_t key : sink_keys_)
    reports.push_back(sink_table_[key].report);
  const ContourQuery& query = options_.base.query;
  if (query.enable_filtering)
    reports = InNetworkFilter::from_query(query).filter(std::move(reports));
  return reports;
}

std::vector<ContinuousMapper::SinkDumpEntry> ContinuousMapper::sink_dump()
    const {
  std::vector<SinkDumpEntry> out;
  out.reserve(static_cast<std::size_t>(sink_count_));
  for (const std::size_t key : sink_keys_) {
    const SinkSlot& sink_slot = sink_table_[key];
    if (!sink_slot.present) continue;
    out.push_back(
        {static_cast<int>(key / static_cast<std::size_t>(num_levels_)),
         static_cast<int>(key % static_cast<std::size_t>(num_levels_)),
         sink_slot.report, sink_slot.last_update});
  }
  return out;
}

}  // namespace isomap
