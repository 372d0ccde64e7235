#include "isomap/contour_map.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>

#include "exec/exec.hpp"
#include "geometry/segment.hpp"
#include "isomap/fingerprint.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

/// The type-1 boundary of cell i: the infinite line through the
/// isoposition perpendicular to the gradient direction.
Line type1_line(Vec2 position, Vec2 unit_dir) {
  return Line{position, unit_dir.perp()};
}

/// Intersection of two type-1 lines; nullopt when (nearly) parallel.
std::optional<Vec2> line_line_intersection(const Line& l1, const Line& l2) {
  const double denom = l1.dir.cross(l2.dir);
  if (std::abs(denom) < 1e-12) return std::nullopt;
  const double t = (l2.point - l1.point).cross(l2.dir) / denom;
  return l1.point + l1.dir * t;
}

constexpr double kTinyArea = 1e-9;

/// Bitwise report equality over the fields fingerprint_reports hashes.
bool report_equal(const IsolineReport& a, const IsolineReport& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.isolevel) == bits(b.isolevel) &&
         bits(a.position.x) == bits(b.position.x) &&
         bits(a.position.y) == bits(b.position.y) &&
         bits(a.gradient.x) == bits(b.gradient.x) &&
         bits(a.gradient.y) == bits(b.gradient.y) && a.source == b.source;
}

bool report_sets_equal(const std::vector<IsolineReport>& a,
                       const std::vector<IsolineReport>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), report_equal);
}

}  // namespace

LevelRegion::LevelRegion(double isolevel, std::vector<IsolineReport> reports,
                         FieldBounds bounds, RegulationMode mode)
    : isolevel_(isolevel),
      reports_(std::move(reports)),
      bounds_(bounds),
      mode_(mode),
      voronoi_(
          [&] {
            std::vector<Vec2> sites;
            sites.reserve(reports_.size());
            for (const auto& r : reports_) sites.push_back(r.position);
            return sites;
          }(),
          bounds.x0, bounds.y0, bounds.x1, bounds.y1) {
  unit_dirs_.reserve(reports_.size());
  for (const auto& r : reports_) unit_dirs_.push_back(r.gradient.normalized());
  build_pieces(mode);
  build_piece_boxes();
  build_boundaries();
}

void LevelRegion::build_piece_boxes() {
  constexpr double kContainsEps = 1e-9;  // Tolerance used by contains().
  piece_boxes_.resize(pieces_.size());
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    piece_boxes_[i].reserve(pieces_[i].size());
    for (const Polygon& piece : pieces_[i]) {
      PieceBox box{std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()};
      for (std::size_t v = 0; v < piece.size(); ++v) {
        const Vec2 p = piece.vertex(v);
        box.x0 = std::min(box.x0, p.x);
        box.y0 = std::min(box.y0, p.y);
        box.x1 = std::max(box.x1, p.x);
        box.y1 = std::max(box.y1, p.y);
      }
      box.x0 -= 2.0 * kContainsEps;
      box.y0 -= 2.0 * kContainsEps;
      box.x1 += 2.0 * kContainsEps;
      box.y1 += 2.0 * kContainsEps;
      piece_boxes_[i].push_back(box);
    }
  }
}

void LevelRegion::build_pieces(RegulationMode mode) {
  const std::size_t n = reports_.size();
  pieces_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VoronoiCell& cell = voronoi_.cell(i);
    if (cell.empty()) continue;
    const Polygon cell_poly = cell.polygon();
    const Vec2 di = unit_dirs_[i];
    if (di == Vec2{}) {
      // Degenerate gradient: no orientation information; keep the whole
      // cell as inner (the node itself sits on the isoline).
      pieces_[i].push_back(cell_poly);
      continue;
    }
    const Vec2 pi = reports_[i].position;
    const HalfPlane hi = HalfPlane::against_direction(pi, di);
    Polygon inner = cell_poly.clip(hi);

    if (mode == RegulationMode::kRules) {
      const Line li = type1_line(pi, di);
      for (int j : cell.neighbours()) {
        const auto ju = static_cast<std::size_t>(j);
        const Vec2 dj = unit_dirs_[ju];
        if (dj == Vec2{}) continue;
        // Only regulate against neighbours with broadly consistent
        // orientation; opposing gradients indicate the far side of a thin
        // region, where prolonging lines across would be wrong.
        if (angle_between(di, dj) >= M_PI / 2.0) continue;
        const Line lj = type1_line(reports_[ju].position, dj);
        const auto x = line_line_intersection(li, lj);
        if (!x) continue;
        // The junction X (where the prolonged type-1 boundaries meet) must
        // lie within this cell for the corner replacement to act here; the
        // symmetric case (X in the neighbour's cell) is handled when the
        // neighbour's cell is processed.
        if (!cell_poly.contains(*x, 1e-9)) continue;
        const HalfPlane hj =
            HalfPlane::against_direction(reports_[ju].position, dj);

        // Locate the type-2 step on the shared Voronoi edge: A is where
        // our cut meets the shared edge, B where the neighbour's cut does.
        // The midpoint M of the step tells pinnacle from concavity:
        //  - M inside H_i but outside H_j: our inner part juts out past
        //    the neighbour's boundary (internal angle in (180, 270) deg) —
        //    Rule 1 removes the pinnacle by clipping with H_j.
        //  - M outside H_i but inside H_j: a concave pocket (internal
        //    angle in (90, 180) deg) — Rule 2 fills it with the convex
        //    piece cell * H_j * complement(H_i).
        for (std::size_t e = 0; e < cell.size(); ++e) {
          if (cell.edge_tags[e] != j) continue;
          const Segment shared = cell.edge(e);
          const auto a = line_segment_intersection(li, shared);
          const auto b = line_segment_intersection(lj, shared);
          if (!a || !b) continue;
          const Vec2 m = (*a + *b) * 0.5;
          const bool in_i = hi.contains(m, 1e-9);
          const bool in_j = hj.contains(m, 1e-9);
          if (in_i && !in_j) {
            inner = inner.clip(hj);  // Rule 1: shave the pinnacle.
          } else if (!in_i && in_j) {
            const HalfPlane hi_complement{-hi.normal, -hi.offset};
            Polygon fill = cell_poly.clip(hj).clip(hi_complement);
            if (fill.area() > kTinyArea)
              pieces_[i].push_back(std::move(fill));  // Rule 2: fill.
          }
        }
      }
    }
    if (inner.area() > kTinyArea)
      pieces_[i].insert(pieces_[i].begin(), std::move(inner));
  }
}

bool LevelRegion::contains(Vec2 q) const {
  if (reports_.empty()) return false;
  if (mode_ == RegulationMode::kBlended) return contains_blended(q);
  return contains_rules(q);
}

bool LevelRegion::contains_rules(Vec2 q) const {
  const int site = voronoi_.nearest_site(q);
  if (site < 0) return false;
  const auto& pieces = pieces_[static_cast<std::size_t>(site)];
  const auto& boxes = piece_boxes_[static_cast<std::size_t>(site)];
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    // Inflated-box rejection is exact (see PieceBox): skipping a piece
    // here never changes the answer the polygon walk would have given.
    const PieceBox& b = boxes[i];
    if (q.x < b.x0 || q.x > b.x1 || q.y < b.y0 || q.y > b.y1) continue;
    if (pieces[i].contains(q, 1e-9)) return true;
  }
  return false;
}

bool LevelRegion::contains_blended(Vec2 q) const {
  // Inverse-square-distance blend of the two nearest reports' signed
  // half-plane tests; reduces to the plain test with one report.
  int best = -1, second = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  double second_d2 = best_d2;
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    const double d2 = (reports_[i].position - q).norm2();
    if (d2 < best_d2) {
      second = best;
      second_d2 = best_d2;
      best = static_cast<int>(i);
      best_d2 = d2;
    } else if (d2 < second_d2) {
      second = static_cast<int>(i);
      second_d2 = d2;
    }
  }
  if (best < 0) return false;
  const auto signed_side = [&](int idx) {
    const auto iu = static_cast<std::size_t>(idx);
    return (q - reports_[iu].position).dot(unit_dirs_[iu]);
  };
  if (best_d2 < 1e-18 || second < 0) return signed_side(best) <= 0.0;
  const double wb = 1.0 / best_d2;
  const double ws = 1.0 / second_d2;
  return (wb * signed_side(best) + ws * signed_side(second)) / (wb + ws) <=
         0.0;
}

void LevelRegion::build_boundaries() {
  // A piece edge belongs to the region boundary iff stepping slightly
  // outward across it leaves the region; edges on the field border are
  // excluded (they are artifacts of the bounding box, not isolines).
  const double span = std::max(bounds_.width(), bounds_.height());
  const double delta = 1e-5 * span;
  const double border_tol = 1e-7 * span;
  std::vector<Segment> segments;

  auto on_field_border = [&](Vec2 a, Vec2 b) {
    auto near_edge = [&](double va, double vb, double edge) {
      return std::abs(va - edge) <= border_tol &&
             std::abs(vb - edge) <= border_tol;
    };
    return near_edge(a.x, b.x, bounds_.x0) || near_edge(a.x, b.x, bounds_.x1) ||
           near_edge(a.y, b.y, bounds_.y0) || near_edge(a.y, b.y, bounds_.y1);
  };

  for (const auto& cell_pieces : pieces_) {
    for (const auto& piece : cell_pieces) {
      Polygon poly = piece;
      poly.make_ccw();
      for (std::size_t e = 0; e < poly.size(); ++e) {
        const Segment seg = poly.edge(e);
        if (seg.length() <= border_tol) continue;
        if (on_field_border(seg.a, seg.b)) continue;
        // Outward normal of a CCW polygon edge points right of a->b.
        const Vec2 outward = -(seg.b - seg.a).normalized().perp();
        const Vec2 probe = seg.midpoint() + outward * delta;
        if (!contains(probe)) segments.push_back(seg);
      }
    }
  }
  boundaries_ = stitch_segments(segments, 1e-6 * span);
}

ContourMap::ContourMap(FieldBounds bounds, std::vector<LevelRegion> regions)
    : bounds_(bounds) {
  regions_.reserve(regions.size());
  for (auto& region : regions)
    regions_.push_back(
        std::make_shared<const LevelRegion>(std::move(region)));
}

ContourMap::ContourMap(FieldBounds bounds,
                       std::vector<std::shared_ptr<const LevelRegion>> regions)
    : bounds_(bounds), regions_(std::move(regions)) {}

void ContourMap::level_index_batch(std::span<const Vec2> qs,
                                   std::span<int> out) const {
  const std::size_t m = qs.size();
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(m), 0);
  // Active-point sieve over the level stack: a point leaves the sieve at
  // the first supported region that rejects it (the scalar walk's break).
  // pending[i] counts transparent empty levels seen since the point's
  // last supported containment, exactly mirroring the scalar counter.
  std::vector<std::size_t> active(m);
  for (std::size_t i = 0; i < m; ++i) active[i] = i;
  std::vector<int> pending(m, 0);
  for (const auto& region : regions_) {
    if (active.empty()) break;
    if (!region->has_reports()) {
      for (const std::size_t i : active) ++pending[i];
      continue;
    }
    std::size_t kept = 0;
    for (const std::size_t i : active) {
      if (!region->contains(qs[i])) continue;  // Scalar break: finished.
      out[i] += pending[i] + 1;
      pending[i] = 0;
      active[kept++] = i;
    }
    active.resize(kept);
  }
}

int ContourMap::level_index(Vec2 q) const {
  // Walk the stack from the lowest isolevel up. A level with no reports
  // is *transparent*: no isoline of that level crossed the field, so it
  // does not partition it; by nesting, membership in any higher
  // (supported) region implies membership in the empty level below, so
  // empty levels count only once a higher region confirms the point.
  int level = 0;
  int pending_empty = 0;
  for (const auto& region : regions_) {
    if (!region->has_reports()) {
      ++pending_empty;
      continue;
    }
    if (!region->contains(q)) break;
    level += pending_empty + 1;
    pending_empty = 0;
  }
  return level;
}

void group_reports_by_level(std::span<const IsolineReport> reports,
                            std::span<const double> isolevels,
                            std::vector<std::vector<IsolineReport>>& levels) {
  constexpr double kLevelTol = 1e-9;
  levels.resize(isolevels.size());
  for (auto& group : levels) group.clear();
  // Level indices by ascending isolevel (NaN levels never match), so a
  // report binary-searches its levels instead of scanning all of them.
  std::vector<std::size_t> order;
  order.reserve(isolevels.size());
  for (std::size_t li = 0; li < isolevels.size(); ++li)
    if (!std::isnan(isolevels[li])) order.push_back(li);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return isolevels[a] < isolevels[b];
  });
  for (const IsolineReport& r : reports) {
    const auto near = [&](std::size_t li) {
      return std::abs(r.isolevel - isolevels[li]) < kLevelTol;
    };
    // Floating subtraction is monotone, so the levels passing `near` are
    // contiguous in ascending order around the first level >= isolevel:
    // widen from there while the exact predicate holds.
    auto hi = std::lower_bound(
        order.begin(), order.end(), r.isolevel,
        [&](std::size_t li, double v) { return isolevels[li] < v; });
    auto lo = hi;
    while (lo != order.begin() && near(*(lo - 1))) --lo;
    while (hi != order.end() && near(*hi)) ++hi;
    for (auto it = lo; it != hi; ++it) levels[*it].push_back(r);
  }
}

ContourMapBuilder::ContourMapBuilder(FieldBounds bounds, RegulationMode mode)
    : bounds_(bounds), mode_(mode) {}

ContourMap ContourMapBuilder::build(const std::vector<IsolineReport>& reports,
                                    const std::vector<double>& isolevels) const {
  std::vector<CachedLevel> cache;
  return build(reports, isolevels, cache);
}

ContourMap ContourMapBuilder::build(const std::vector<IsolineReport>& reports,
                                    const std::vector<double>& isolevels,
                                    std::vector<CachedLevel>& cache,
                                    std::size_t* rebuilt) const {
  // Sink-side construction: wall time per level is the observable; no
  // ledger charge (the sink is a powered host).
  obs::PhaseTimer timer(obs::kPhaseMapGen);
  obs::count("map_gen.reports", static_cast<double>(reports.size()));
  obs::count("map_gen.levels", static_cast<double>(isolevels.size()));
  const std::size_t k = isolevels.size();
  std::vector<std::vector<IsolineReport>> level_reports;
  group_reports_by_level(reports, isolevels, level_reports);
  cache.resize(k);

  // LevelRegion construction is a pure function of (isolevel, reports,
  // bounds, mode), so a level whose report set is unchanged keeps its
  // region; the fingerprint screens, the exact comparison decides.
  std::vector<std::size_t> dirty;
  for (std::size_t li = 0; li < k; ++li) {
    CachedLevel& entry = cache[li];
    const std::uint64_t fingerprint = fingerprint_reports(level_reports[li]);
    if (entry.region && entry.fingerprint == fingerprint &&
        report_sets_equal(entry.region->reports(), level_reports[li]))
      continue;
    entry.fingerprint = fingerprint;
    dirty.push_back(li);
  }
  if (rebuilt) *rebuilt = dirty.size();

  // Each slot is written by exactly one task, so the pool's result is the
  // serial loop's.
  const auto build_one = [&](std::size_t i) {
    const std::size_t li = dirty[i];
    cache[li].region = std::make_shared<const LevelRegion>(
        isolevels[li], std::move(level_reports[li]), bounds_, mode_);
  };
  if (dirty.size() <= 4 && dirty.size() < k) {
    for (std::size_t i = 0; i < dirty.size(); ++i) build_one(i);
  } else {
    exec::parallel_for(dirty.size(), build_one);
  }

  std::vector<std::shared_ptr<const LevelRegion>> regions;
  regions.reserve(k);
  for (const CachedLevel& entry : cache) regions.push_back(entry.region);
  return ContourMap(bounds_, std::move(regions));
}

}  // namespace isomap
