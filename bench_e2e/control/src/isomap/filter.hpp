#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "isomap/query.hpp"
#include "isomap/report.hpp"

namespace isomap {

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

  /// Merge a batch of incoming reports into `kept`, dropping redundant
  /// ones. Earlier-kept reports win ties (the paper drops "one of the
  /// two"). `ops` (if non-null) accumulates the comparison cost charged to
  /// the filtering node — each pairwise comparison is a handful of
  /// arithmetic operations, O(N_rep^2) network-wide (Section 4.2).
  ///
  /// `at_node` (>= 0) identifies the filtering node for observability:
  /// when an obs::TraceSink is active, every dropped report is emitted as
  /// a per-hop "drop" event carrying the node, the dropped report's
  /// source and its isolevel — the event-by-event view of Fig. 13.
  ///
  /// Templated over the kept vector's allocator so the protocol's
  /// arena-backed convergecast buffers (see round_arena.hpp) filter in
  /// place; instantiated in filter.cpp for std::allocator and ArenaAlloc.
  template <typename Alloc>
  void merge(std::vector<IsolineReport, Alloc>& kept,
             std::span<const IsolineReport> incoming, double* ops = nullptr,
             int at_node = -1) const;

  void merge(std::vector<IsolineReport>& kept,
             std::initializer_list<IsolineReport> incoming,
             double* ops = nullptr, int at_node = -1) const {
    merge(kept,
          std::span<const IsolineReport>(incoming.begin(), incoming.size()),
          ops, at_node);
  }

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
