#pragma once

#include <memory>
#include <span>
#include <vector>

#include "field/scalar_field.hpp"
#include "geometry/polygon.hpp"
#include "geometry/polyline.hpp"
#include "geometry/voronoi.hpp"
#include "isomap/report.hpp"

namespace isomap {

/// How the sink regulates the raw Voronoi/type-1 approximation (Fig. 8e):
///  - kNone:    raw per-cell construction (type-1 cuts + type-2 cell-border
///              complements), no smoothing — Fig. 8d.
///  - kRules:   the paper's Rules 1 & 2 — type-1 boundaries are prolonged
///              to meet the adjacent cell's type-1 boundary, shaving
///              pinnacles and filling concavities (the default).
///  - kBlended: ablation alternative — inverse-distance-weighted blend of
///              the two nearest reports' half-plane tests (smooth
///              continuous boundary; not in the paper).
enum class RegulationMode { kNone, kRules, kBlended };

/// The contour region of a single isolevel as reconstructed at the sink:
/// the Voronoi diagram of the reported isopositions plus, per cell, the
/// convex pieces making up the region (the inner part plus any Rule-2
/// concave fills).
class LevelRegion {
 public:
  LevelRegion(double isolevel, std::vector<IsolineReport> reports,
              FieldBounds bounds, RegulationMode mode);

  double isolevel() const { return isolevel_; }
  const std::vector<IsolineReport>& reports() const { return reports_; }
  const VoronoiDiagram& voronoi() const { return voronoi_; }
  bool has_reports() const { return !reports_.empty(); }

  /// All convex pieces of the region within the cell of site i.
  const std::vector<Polygon>& cell_pieces(int i) const {
    return pieces_[static_cast<std::size_t>(i)];
  }

  /// True if q lies in the reconstructed contour region.
  bool contains(Vec2 q) const;

  /// Batch membership: out[i] = contains(qs[i]) for every i, with the
  /// per-piece inflated-box pre-reject evaluated branch-free (the four
  /// comparisons folded bitwise instead of short-circuited) so the hot
  /// rasterization loop takes one well-predicted branch per piece. The
  /// per-point decision sequence is identical to contains(), so the
  /// output bytes match the scalar oracle bit for bit.
  void contains_batch(std::span<const Vec2> qs,
                      std::span<unsigned char> out) const;

  /// Boundary chains of the region, excluding portions on the field
  /// border; these are the estimated isolines compared against the ground
  /// truth in the paper's Fig. 12 Hausdorff metric.
  const std::vector<Polyline>& boundaries() const { return boundaries_; }

 private:
  /// Axis-aligned bounding box of one piece, inflated by twice the
  /// containment tolerance: a query point outside the inflated box is
  /// farther than the tolerance from every point of the piece, so the
  /// exact Polygon::contains test is guaranteed to reject it. Lets the
  /// point-in-region hot loop skip the per-edge polygon walk for most
  /// pieces with four comparisons.
  struct PieceBox {
    double x0, y0, x1, y1;
  };

  bool contains_rules(Vec2 q) const;
  bool contains_blended(Vec2 q) const;
  void build_pieces(RegulationMode mode);
  void build_piece_boxes();
  void build_boundaries();

  double isolevel_;
  std::vector<IsolineReport> reports_;
  FieldBounds bounds_;
  RegulationMode mode_;
  VoronoiDiagram voronoi_;
  std::vector<Vec2> unit_dirs_;  ///< Normalized descent directions.
  std::vector<std::vector<Polygon>> pieces_;
  std::vector<std::vector<PieceBox>> piece_boxes_;  ///< Parallel to pieces_.
  std::vector<Polyline> boundaries_;
};

/// A full multi-level contour map (Section 3.4): level regions stacked
/// recursively from the lowest isolevel up, each clipped to its
/// predecessors.
class ContourMap {
 public:
  ContourMap(FieldBounds bounds, std::vector<LevelRegion> regions);

  /// Shared-region construction: levels reused from a cache (the
  /// continuous engine's clean isolevels) are referenced, not copied. A
  /// LevelRegion is immutable after construction, so sharing is safe.
  ContourMap(FieldBounds bounds,
             std::vector<std::shared_ptr<const LevelRegion>> regions);

  const FieldBounds& bounds() const { return bounds_; }
  int level_count() const { return static_cast<int>(regions_.size()); }
  const LevelRegion& region(int k) const {
    return *regions_[static_cast<std::size_t>(k)];
  }

  /// Number of nested regions containing q: 0 means q is below the first
  /// isolevel, level_count() means q is inside the highest region. The
  /// recursive restriction rule of Section 3.4 is applied: a point only
  /// counts as inside level k if it is inside all lower levels too.
  /// Levels with no reports are transparent (no isoline of that level
  /// crossed the field): they count exactly when a higher, supported
  /// level contains q.
  int level_index(Vec2 q) const;

  /// Batch variant: out[i] = level_index(qs[i]) for every i. Walks the
  /// level stack once per *batch* instead of once per point, narrowing an
  /// active-point list as lower levels reject points, and resolves each
  /// level's memberships through LevelRegion::contains_batch. Replicates
  /// level_index's early-break and transparent-empty-level bookkeeping
  /// per point exactly, so every output equals the scalar call's.
  void level_index_batch(std::span<const Vec2> qs, std::span<int> out) const;

  /// Estimated isolines of level k (empty when the level had no reports).
  const std::vector<Polyline>& isolines(int k) const {
    return regions_[static_cast<std::size_t>(k)]->boundaries();
  }

 private:
  FieldBounds bounds_;
  std::vector<std::shared_ptr<const LevelRegion>> regions_;
};

/// Streaming sink-side map construction: reports are consumed one at a
/// time into per-level buckets, and finish() assembles the stacked map
/// from the buckets. The sink never needs the full report set *and* a
/// per-level regrouping to coexist — its live memory is bounded by the
/// delivered reports (O(sqrt(n) * levels)), which is what keeps a
/// million-node round's sink footprint flat.
///
/// Identity contract: a report lands in exactly the buckets the batch
/// builder's per-level scan (|report.isolevel - level| < 1e-9) put it in,
/// in the same per-level order, so finish() builds bit-identical regions.
class StreamingSinkBuilder {
 public:
  StreamingSinkBuilder(FieldBounds bounds, std::vector<double> isolevels,
                       RegulationMode mode = RegulationMode::kRules);

  /// Bucket one report into every isolevel within the matching tolerance
  /// (located by binary search over the sorted level view; the exact
  /// batch-builder predicate decides membership).
  void consume(const IsolineReport& report);

  /// Build the stacked map from the buckets (one LevelRegion per level,
  /// constructed across the exec pool). Consumes the buckets.
  ContourMap finish();

 private:
  FieldBounds bounds_;
  RegulationMode mode_;
  std::vector<double> isolevels_;
  /// Level indices ordered by ascending isolevel (NaN levels excluded —
  /// they can never match), so consume() binary-searches instead of
  /// scanning every level per report.
  std::vector<int> sorted_levels_;
  std::vector<std::vector<IsolineReport>> level_reports_;
};

/// Builds ContourMaps from sink-side report sets. A thin batch facade
/// over StreamingSinkBuilder: build() streams the reports through it and
/// finishes the map.
class ContourMapBuilder {
 public:
  explicit ContourMapBuilder(FieldBounds bounds,
                             RegulationMode mode = RegulationMode::kRules);

  /// Group `reports` by isolevel (one LevelRegion per entry of
  /// `isolevels`, ascending) and construct the stacked map.
  ContourMap build(const std::vector<IsolineReport>& reports,
                   const std::vector<double>& isolevels) const;

 private:
  FieldBounds bounds_;
  RegulationMode mode_;
};

}  // namespace isomap
