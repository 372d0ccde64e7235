#pragma once

#include <cstdint>
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
  /// active-point list as lower levels reject points, so each level's
  /// region data stays hot across the points it tests. Replicates
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

/// The sink's one rule for grouping reports by isolevel: levels[k]
/// receives, in report order, every report whose isolevel lies within
/// 1e-9 of isolevels[k], so a report may land under several levels and a
/// NaN isolevel (report's or level's) matches none. `isolevels` need not
/// be sorted. `levels` is resized to isolevels.size() and each group
/// cleared first; their capacity is kept, so a caller can reuse one
/// grouping across rounds.
void group_reports_by_level(std::span<const IsolineReport> reports,
                            std::span<const double> isolevels,
                            std::vector<std::vector<IsolineReport>>& levels);

/// One isolevel's entry in a ContourMapBuilder level cache: the region
/// last built for the level, which retains the report set it was built
/// from, and that set's fingerprint_reports. A default entry matches no
/// report set.
struct CachedLevel {
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const LevelRegion> region;
};

/// Builds ContourMaps from sink-side report sets.
class ContourMapBuilder {
 public:
  explicit ContourMapBuilder(FieldBounds bounds,
                             RegulationMode mode = RegulationMode::kRules);

  /// Group `reports` by isolevel (group_reports_by_level; one
  /// LevelRegion per entry of `isolevels`, ascending) and construct the
  /// stacked map: the cached build below with an empty cache.
  ContourMap build(const std::vector<IsolineReport>& reports,
                   const std::vector<double>& isolevels) const;

  /// The sink build of both engines. `cache` is resized to one entry per
  /// isolevel. A level whose report set equals its entry's (fingerprint
  /// first, a bitwise comparison with the region's retained reports
  /// deciding) reuses the cached region by reference; every other level
  /// is rebuilt and its entry replaced, so afterwards each entry holds
  /// its level's current fingerprint. Rebuilds spread over the exec pool,
  /// except that a partial rebuild of at most 4 levels stays on this
  /// thread, where pool dispatch costs more than the builds; levels are
  /// built independently, so the map is the same either way. `rebuilt`,
  /// if non-null, receives the number of levels built.
  ContourMap build(const std::vector<IsolineReport>& reports,
                   const std::vector<double>& isolevels,
                   std::vector<CachedLevel>& cache,
                   std::size_t* rebuilt = nullptr) const;

 private:
  FieldBounds bounds_;
  RegulationMode mode_;
};

}  // namespace isomap
