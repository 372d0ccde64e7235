#pragma once

// Oracle for the span kernels in src/isomap/regression.hpp
// (plane_position_stats, plane_value_stats, fit_plane_soa): each must
// match its array-of-structs counterpart here bit for bit.

#include <optional>
#include <vector>

#include "geometry/vec2.hpp"
#include "isomap/regression.hpp"

namespace isomap::oracle {

/// A (position, value) sample used in the local regression.
struct FieldSample {
  Vec2 pos{};
  double value = 0.0;
};

/// Accumulate the position block over `samples` in order.
inline PlanePositionStats plane_position_stats(
    const std::vector<FieldSample>& samples) {
  // Centre the coordinates on the sample mean for numerical stability
  // (the fitted gradient is translation-invariant; c0 is shifted back in
  // solve_plane). Each sum accumulates its own addend sequence in sample
  // order.
  PlanePositionStats stats;
  stats.n = samples.size();
  for (const auto& s : samples) stats.mean += s.pos;
  if (stats.n > 0) stats.mean *= 1.0 / static_cast<double>(stats.n);
  for (const auto& s : samples) {
    const double x = s.pos.x - stats.mean.x;
    const double y = s.pos.y - stats.mean.y;
    stats.sx += x;
    stats.sy += y;
    stats.sxx += x * x;
    stats.sxy += x * y;
    stats.syy += y * y;
  }
  return stats;
}

/// Accumulate the value block over `samples` in order, centring positions
/// on `pos.mean`. The samples must be the ones `pos` was built from.
inline PlaneValueStats plane_value_stats(
    const std::vector<FieldSample>& samples, const PlanePositionStats& pos) {
  PlaneValueStats stats;
  for (const auto& s : samples) stats.mean_v += s.value;
  if (pos.n > 0) stats.mean_v *= 1.0 / static_cast<double>(pos.n);
  for (const auto& s : samples) {
    const double x = s.pos.x - pos.mean.x;
    const double y = s.pos.y - pos.mean.y;
    const double v = s.value - stats.mean_v;
    stats.sv += v;
    stats.sxv += x * v;
    stats.syv += y * v;
  }
  return stats;
}

/// Least-squares plane fit through the samples (Eq. 2): position stats,
/// value stats, then solve_plane. Emits the metrics and adds the ops a
/// production fit is charged: FitMetrics::record, and fit_plane_ops on
/// success.
inline std::optional<PlaneFit> fit_plane(
    const std::vector<FieldSample>& samples, double* ops = nullptr) {
  std::optional<PlaneFit> fit;
  if (samples.size() >= 3) {
    const PlanePositionStats pos = plane_position_stats(samples);
    fit = solve_plane(pos, plane_value_stats(samples, pos));
  }
  FitMetrics().record(samples.size(), fit.has_value());
  if (fit && ops) *ops += fit_plane_ops(samples.size());
  return fit;
}

}  // namespace isomap::oracle
