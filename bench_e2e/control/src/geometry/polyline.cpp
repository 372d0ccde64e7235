#include "geometry/polyline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

namespace isomap {

double Polyline::length() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < num_segments(); ++i) acc += segment(i).length();
  return acc;
}

std::size_t Polyline::num_segments() const {
  if (points_.size() < 2) return 0;
  return closed_ ? points_.size() : points_.size() - 1;
}

Segment Polyline::segment(std::size_t i) const {
  return {points_[i], points_[(i + 1) % points_.size()]};
}

double Polyline::distance_to(Vec2 q) const {
  if (points_.empty()) return std::numeric_limits<double>::infinity();
  if (points_.size() == 1) return q.distance_to(points_[0]);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < num_segments(); ++i)
    best = std::min(best, point_segment_distance(q, segment(i)));
  return best;
}

std::vector<Vec2> Polyline::resample(double spacing) const {
  if (spacing <= 0.0) throw std::invalid_argument("resample: spacing <= 0");
  std::vector<Vec2> out;
  if (points_.empty()) return out;
  out.push_back(points_[0]);
  double carried = 0.0;
  for (std::size_t i = 0; i < num_segments(); ++i) {
    const Segment s = segment(i);
    const double len = s.length();
    if (len == 0.0) continue;
    double pos = spacing - carried;
    while (pos < len) {
      out.push_back(s.at(pos / len));
      pos += spacing;
    }
    carried = len - (pos - spacing);
  }
  if (!closed_ && points_.size() > 1 &&
      out.back().distance_to(points_.back()) > 1e-12)
    out.push_back(points_.back());
  return out;
}

void Polyline::reverse() { std::reverse(points_.begin(), points_.end()); }

namespace {

struct PointKey {
  long long qx;
  long long qy;
  bool operator<(const PointKey& o) const {
    return qx < o.qx || (qx == o.qx && qy < o.qy);
  }
  bool operator==(const PointKey& o) const { return qx == o.qx && qy == o.qy; }
};

PointKey key_of(Vec2 p, double quantum) {
  return {std::llround(p.x / quantum), std::llround(p.y / quantum)};
}

}  // namespace

std::vector<Polyline> stitch_segments(const std::vector<Segment>& segments,
                                      double tol) {
  if (tol <= 0.0) throw std::invalid_argument("stitch_segments: tol <= 0");
  struct Raw {
    Vec2 a, b;
    bool used = false;
  };
  std::vector<Raw> raw;
  raw.reserve(segments.size());
  for (const auto& s : segments)
    if (s.a.distance_to(s.b) > tol) raw.push_back({s.a, s.b, false});

  std::multimap<PointKey, std::size_t> by_endpoint;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    by_endpoint.emplace(key_of(raw[i].a, tol), i);
    by_endpoint.emplace(key_of(raw[i].b, tol), i);
  }

  auto take_next = [&](Vec2 tail) -> std::optional<Vec2> {
    const PointKey k = key_of(tail, tol);
    // Check the 3x3 block of quantized keys around the tail so endpoints
    // that straddle a quantization boundary still match.
    for (long long dx = -1; dx <= 1; ++dx) {
      for (long long dy = -1; dy <= 1; ++dy) {
        auto [lo, hi] = by_endpoint.equal_range(PointKey{k.qx + dx, k.qy + dy});
        for (auto it = lo; it != hi; ++it) {
          Raw& s = raw[it->second];
          if (s.used) continue;
          if (s.a.distance_to(tail) <= tol) {
            s.used = true;
            return s.b;
          }
          if (s.b.distance_to(tail) <= tol) {
            s.used = true;
            return s.a;
          }
        }
      }
    }
    return std::nullopt;
  };

  std::vector<Polyline> chains;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].used) continue;
    raw[i].used = true;
    std::vector<Vec2> pts{raw[i].a, raw[i].b};
    while (auto nxt = take_next(pts.back())) pts.push_back(*nxt);
    while (auto nxt = take_next(pts.front())) pts.insert(pts.begin(), *nxt);
    bool closed = false;
    if (pts.size() > 2 && pts.front().distance_to(pts.back()) <= tol) {
      pts.pop_back();
      closed = true;
    }
    chains.emplace_back(std::move(pts), closed);
  }
  return chains;
}

double directed_hausdorff(const std::vector<Polyline>& a,
                          const std::vector<Polyline>& b, double spacing) {
  bool a_has_points = false;
  for (const auto& pl : a) a_has_points |= !pl.empty();
  if (!a_has_points) return 0.0;
  bool b_has_points = false;
  for (const auto& pl : b) b_has_points |= !pl.empty();
  if (!b_has_points) return std::numeric_limits<double>::infinity();

  double worst = 0.0;
  for (const auto& pl : a) {
    for (const Vec2 q : pl.resample(spacing)) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const auto& other : b) nearest = std::min(nearest, other.distance_to(q));
      worst = std::max(worst, nearest);
    }
  }
  return worst;
}

double hausdorff_distance(const std::vector<Polyline>& a,
                          const std::vector<Polyline>& b, double spacing) {
  return std::max(directed_hausdorff(a, b, spacing),
                  directed_hausdorff(b, a, spacing));
}

}  // namespace isomap
