#pragma once

#include <span>
#include <vector>

#include "isomap/query.hpp"
#include "isomap/report.hpp"
#include "isomap/round_arena.hpp"

namespace isomap {

class FilterIndex;

/// One filtering node's kept reports: indices into a FilterIndex's report
/// table in arrival order, plus the first and last kept report of each
/// isolevel's chain. Arena-backed (see round_arena.hpp), so it must not
/// outlive its arena. A set is filled either through a FilterIndex
/// (keep / InNetworkFilter::merge) or through append(), never both.
class KeptSet {
 public:
  explicit KeptSet(RoundArena& arena)
      : ids_(ArenaAlloc<int>(arena)), chains_(ArenaAlloc<Chain>(arena)) {}

  std::span<const int> ids() const { return ids_; }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Append report indices unfiltered and unchained (filter off).
  void append(std::span<const int> ids) {
    ids_.insert(ids_.end(), ids.begin(), ids.end());
  }

  void clear() {
    ids_.clear();
    chains_.clear();
  }

 private:
  friend class FilterIndex;
  friend class InNetworkFilter;

  struct Chain {
    int head = -1;  ///< Report index; -1 when the level has no kept report.
    int tail = -1;
  };

  std::vector<int, ArenaAlloc<int>> ids_;
  /// By level key; sized to the index's key count on the first keep.
  std::vector<Chain, ArenaAlloc<Chain>> chains_;
};

/// The filter's view of one report table: each report's isolevel mapped
/// once to a small key, and each kept report's link in its level's chain.
/// Keys keep `==` identity: -0.0 and 0.0 share one, and a NaN level gets
/// none, so a NaN report is kept without ever matching. Every KeptSet fed
/// through one index shares its links, which is sound because a report
/// sits in at most one kept set at a time (a hop moves it on).
class FilterIndex {
 public:
  /// `table` must outlive the index; its isolevels must not change.
  explicit FilterIndex(std::span<const IsolineReport> table);

  /// Append report `id` to `kept` unfiltered (a source's own reports).
  void keep(KeptSet& kept, int id);

 private:
  friend class InNetworkFilter;

  static constexpr int kNoKey = -1;

  struct Link {
    int key = kNoKey;
    int next = -1;  ///< Next kept report of the chain; -1 at the tail.
    int pos = 0;    ///< Position in the kept set that holds the report.
  };

  std::span<const IsolineReport> table_;
  int num_keys_ = 0;
  std::vector<Link> links_;  ///< By report index.
};

/// The parameterized in-network filter of Section 3.5. Two reports of the
/// same isolevel are *redundant* when both their angular separation s_a
/// (angle between the gradient directions) and distance separation s_d
/// (distance between positions) fall below the thresholds; the filter then
/// drops one of the pair. Intermediate nodes apply the filter recursively
/// to the report sets flowing through them.
class InNetworkFilter {
 public:
  /// Thresholds: `angular_deg` in degrees, `distance` in field units.
  InNetworkFilter(double angular_deg, double distance);

  static InNetworkFilter from_query(const ContourQuery& query) {
    return InNetworkFilter(query.angular_separation_deg,
                           query.distance_separation);
  }

  double angular_threshold_rad() const { return angular_rad_; }
  double distance_threshold() const { return distance_; }

  /// True when the pair is redundant under the thresholds. Reports of
  /// different isolevels are never redundant.
  bool redundant(const IsolineReport& a, const IsolineReport& b) const;

  /// Merge the reports `incoming` (indices into `index`'s table) into
  /// `kept`, dropping redundant ones. Earlier-kept reports win ties (the
  /// paper drops "one of the two"): an incoming report is compared only
  /// with its level's chain, in arrival order, up to the first redundant
  /// one. `ops` (if non-null) accumulates the comparison cost charged to
  /// the filtering node as if the whole kept set were scanned — each
  /// pairwise comparison is a handful of arithmetic operations, O(N_rep^2)
  /// network-wide (Section 4.2): a drop against kept position g costs
  /// g + 1 comparisons, a keep costs the kept set's size.
  ///
  /// `at_node` (>= 0) identifies the filtering node for observability:
  /// when an obs::TraceSink is active, every dropped report is emitted as
  /// a per-hop "drop" event carrying the node, the dropped report's
  /// source and its isolevel — the event-by-event view of Fig. 13.
  void merge(FilterIndex& index, KeptSet& kept, std::span<const int> incoming,
             double* ops = nullptr, int at_node = -1) const;

  /// Filter a whole set in one pass (order-dependent, first-wins).
  std::vector<IsolineReport> filter(std::vector<IsolineReport> reports,
                                    double* ops = nullptr) const;

  /// Arithmetic cost charged per pairwise comparison.
  static constexpr double kOpsPerComparison = 16.0;

 private:
  double angular_rad_;
  double distance_;
};

}  // namespace isomap
