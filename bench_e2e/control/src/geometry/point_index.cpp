#include "geometry/point_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace isomap {

PointIndex::PointIndex(std::vector<Vec2> points)
    : points_(std::move(points)) {
  if (points_.empty()) {
    grid_ = TileGrid(TileLayout{}, {});
    return;
  }
  double max_x = points_[0].x, max_y = points_[0].y;
  min_x_ = points_[0].x;
  min_y_ = points_[0].y;
  for (const Vec2 p : points_) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const double span_x = std::max(max_x - min_x_, 1e-9);
  const double span_y = std::max(max_y - min_y_, 1e-9);
  // Square cells sized from the larger extent so degenerate (collinear /
  // very thin) point sets still yield at most ~sqrt(n) cells per axis —
  // sizing from the box *area* would explode the column count for thin
  // boxes and make the ring search quadratic.
  const double per_axis =
      std::ceil(std::sqrt(std::max(1.0, static_cast<double>(points_.size()))));
  cell_size_ = std::max(span_x, span_y) / per_axis;
  if (cell_size_ <= 0.0) cell_size_ = 1.0;
  cols_ = std::max(1, static_cast<int>(std::ceil(span_x / cell_size_)));
  rows_ = std::max(1, static_cast<int>(std::ceil(span_y / cell_size_)));
  grid_ = TileGrid(
      TileLayout{min_x_, min_y_, cell_size_, cell_size_, cols_, rows_},
      points_);
}

int PointIndex::nearest(Vec2 q) const {
  if (points_.empty()) return -1;
  const int qc = cell_col(q.x);
  const int qr = cell_row(q.y);
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  const int max_ring = std::max(cols_, rows_);
  for (int ring = 0; ring <= max_ring; ++ring) {
    // Once a candidate exists, stop when the closest possible point in
    // this ring cannot beat it. A point q inside its own cell is at least
    // (ring - 1) * cell_size_ away from any cell in ring `ring`.
    if (best >= 0) {
      const double reach = (ring - 1) * cell_size_;
      if (reach > 0.0 && reach * reach > best_d2) break;
    }
    const int c0 = qc - ring, c1 = qc + ring;
    const int r0 = qr - ring, r1 = qr + ring;
    for (int r = r0; r <= r1; ++r) {
      if (r < 0 || r >= rows_) continue;
      for (int c = c0; c <= c1; ++c) {
        if (c < 0 || c >= cols_) continue;
        // Ring perimeter only.
        if (ring > 0 && r != r0 && r != r1 && c != c0 && c != c1) continue;
        for (int idx : cell(c, r)) {
          const double d2 = (points_[static_cast<std::size_t>(idx)] - q).norm2();
          if (d2 < best_d2 || (d2 == best_d2 && idx < best)) {
            best_d2 = d2;
            best = idx;
          }
        }
      }
    }
  }
  return best;
}

std::vector<int> PointIndex::k_nearest(Vec2 q, int k) const {
  std::vector<int> out;
  if (points_.empty() || k <= 0) return out;
  // Small k over modest sets: collect candidates by expanding radius.
  const auto want = static_cast<std::size_t>(
      std::min<std::size_t>(points_.size(), static_cast<std::size_t>(k)));
  double radius = cell_size_;
  std::vector<int> candidates;
  for (int iter = 0; iter < 64; ++iter) {
    candidates = within(q, radius);
    if (candidates.size() >= want) break;
    radius *= 2.0;
  }
  if (candidates.size() < want) {
    candidates.resize(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i)
      candidates[i] = static_cast<int>(i);
  }
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const double da = (points_[static_cast<std::size_t>(a)] - q).norm2();
    const double db = (points_[static_cast<std::size_t>(b)] - q).norm2();
    return da < db || (da == db && a < b);
  });
  candidates.resize(want);
  return candidates;
}

void PointIndex::append_annulus(Vec2 q, double r_lo, double r_hi,
                                std::vector<int>& out) const {
  if (points_.empty() || r_hi < 0.0 || r_hi <= r_lo) return;
  const int c0 = cell_col(q.x - r_hi);
  const int c1 = cell_col(q.x + r_hi);
  const int r0 = cell_row(q.y - r_hi);
  const int r1 = cell_row(q.y + r_hi);
  const double lo2 = r_lo < 0.0 ? -1.0 : r_lo * r_lo;
  const double hi2 = r_hi * r_hi;
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      if (r_lo > 0.0) {
        // Skip cells whose farthest corner is still inside the r_lo disc:
        // every point in them was already reported by an earlier ring.
        const double cx0 = min_x_ + c * cell_size_;
        const double cy0 = min_y_ + r * cell_size_;
        const double fx = std::max(std::abs(q.x - cx0),
                                   std::abs(q.x - (cx0 + cell_size_)));
        const double fy = std::max(std::abs(q.y - cy0),
                                   std::abs(q.y - (cy0 + cell_size_)));
        if (fx * fx + fy * fy <= lo2) continue;
      }
      for (int idx : cell(c, r)) {
        const double d2 = (points_[static_cast<std::size_t>(idx)] - q).norm2();
        if (d2 > lo2 && d2 <= hi2) out.push_back(idx);
      }
    }
  }
}

std::vector<int> PointIndex::within(Vec2 q, double radius) const {
  std::vector<int> out;
  if (points_.empty() || radius < 0.0) return out;
  const int c0 = cell_col(q.x - radius);
  const int c1 = cell_col(q.x + radius);
  const int r0 = cell_row(q.y - radius);
  const int r1 = cell_row(q.y + radius);
  const double r2 = radius * radius;
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      for (int idx : cell(c, r)) {
        if ((points_[static_cast<std::size_t>(idx)] - q).norm2() <= r2)
          out.push_back(idx);
      }
    }
  }
  return out;
}

}  // namespace isomap
