#include "isomap/regression.hpp"

#include <cmath>

#include "net/deployment.hpp"
#include "obs/obs.hpp"

namespace isomap {

bool solve3x3(double a[3][3], double b[3], double x[3]) {
  int perm[3] = {0, 1, 2};
  // Forward elimination with partial pivoting.
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r)
      if (std::abs(a[perm[r]][col]) > std::abs(a[perm[pivot]][col])) pivot = r;
    std::swap(perm[col], perm[pivot]);
    const double diag = a[perm[col]][col];
    if (std::abs(diag) < 1e-12) return false;
    for (int r = col + 1; r < 3; ++r) {
      const double factor = a[perm[r]][col] / diag;
      a[perm[r]][col] = 0.0;
      for (int c = col + 1; c < 3; ++c) a[perm[r]][c] -= factor * a[perm[col]][c];
      b[perm[r]] -= factor * b[perm[col]];
    }
  }
  // Back substitution.
  for (int row = 2; row >= 0; --row) {
    double acc = b[perm[row]];
    for (int c = row + 1; c < 3; ++c) acc -= a[perm[row]][c] * x[c];
    x[row] = acc / a[perm[row]][row];
  }
  return true;
}

PlanePositionStats plane_position_stats(std::span<const double> xs,
                                        std::span<const double> ys) {
  // Centre the coordinates on the sample mean for numerical stability
  // (the fitted gradient is translation-invariant; c0 is shifted back in
  // solve_plane).
  PlanePositionStats stats;
  stats.n = xs.size();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    stats.mean.x += xs[i];
    stats.mean.y += ys[i];
  }
  if (stats.n > 0) stats.mean *= 1.0 / static_cast<double>(stats.n);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i] - stats.mean.x;
    const double y = ys[i] - stats.mean.y;
    stats.sx += x;
    stats.sy += y;
    stats.sxx += x * x;
    stats.sxy += x * y;
    stats.syy += y * y;
  }
  return stats;
}

PlaneValueStats plane_value_stats(std::span<const double> xs,
                                  std::span<const double> ys,
                                  std::span<const double> vs,
                                  const PlanePositionStats& pos) {
  PlaneValueStats stats;
  for (std::size_t i = 0; i < vs.size(); ++i) stats.mean_v += vs[i];
  if (pos.n > 0) stats.mean_v *= 1.0 / static_cast<double>(pos.n);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    const double x = xs[i] - pos.mean.x;
    const double y = ys[i] - pos.mean.y;
    const double v = vs[i] - stats.mean_v;
    stats.sv += v;
    stats.sxv += x * v;
    stats.syv += y * v;
  }
  return stats;
}

std::optional<PlaneFit> fit_plane_soa(std::span<const double> xs,
                                      std::span<const double> ys,
                                      std::span<const double> vs) {
  if (xs.size() < 3) return std::nullopt;
  const PlanePositionStats pos = plane_position_stats(xs, ys);
  return solve_plane(pos, plane_value_stats(xs, ys, vs, pos));
}

std::optional<PlaneFit> solve_plane(const PlanePositionStats& pos,
                                    const PlaneValueStats& val) {
  if (pos.n < 3) return std::nullopt;
  const auto n = static_cast<double>(pos.n);
  double a[3][3] = {{n, pos.sx, pos.sy},
                    {pos.sx, pos.sxx, pos.sxy},
                    {pos.sy, pos.sxy, pos.syy}};
  double b[3] = {val.sv, val.sxv, val.syv};
  double w[3];
  if (!solve3x3(a, b, w)) return std::nullopt;

  PlaneFit fit;
  fit.c1 = w[1];
  fit.c2 = w[2];
  // Un-centre the intercept: v = mean_v + w0 + c1 (x - mx) + c2 (y - my).
  fit.c0 = val.mean_v + w[0] - fit.c1 * pos.mean.x - fit.c2 * pos.mean.y;
  return fit;
}

void PlaneFitRecord::prime(const Deployment& deployment, int node,
                           std::span<const int> scope) {
  const std::size_t n = scope.size() + 1;
  samples.assign(3 * n, 0.0);
  const std::span<double> xs(samples.data(), n), ys(samples.data() + n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const int v = k == 0 ? node : scope[k - 1];
    const Vec2 p = deployment.node(v).reported_pos();
    xs[k] = p.x;
    ys[k] = p.y;
  }
  pos_stats = plane_position_stats(xs, ys);
  primed = true;
  valid = false;
}

void PlaneFitRecord::refit(std::span<const double> readings, int node,
                           std::span<const int> scope) {
  // The cached position block is the bit-exact result of
  // plane_position_stats over these positions, so the fit equals
  // fit_plane_soa over the refreshed samples bit for bit.
  const std::size_t n = size();
  const std::span<double> vs(samples.data() + 2 * n, n);
  vs[0] = readings[static_cast<std::size_t>(node)];
  for (std::size_t k = 1; k < n; ++k)
    vs[k] = readings[static_cast<std::size_t>(scope[k - 1])];
  ops = 0.0;
  has_fit = false;
  if (n >= 3) {
    const std::span<const double> xs(samples.data(), n);
    const std::span<const double> ys(samples.data() + n, n);
    if (const auto fit =
            solve_plane(pos_stats, plane_value_stats(xs, ys, vs, pos_stats))) {
      has_fit = true;
      descent = fit->descent_direction();
      ops = fit_plane_ops(n);
    }
  }
  valid = true;
}

void FitMetrics::record(std::size_t n_samples, bool has_fit) {
  obs::MetricsRegistry* const m = obs::metrics();
  if (m == nullptr) return;
  if (fits_ == nullptr) {
    fits_ = &m->counter_slot("regression.fits");
    samples_ = &m->histogram_slot("regression.samples");
  }
  *fits_ += 1.0;
  samples_->record(static_cast<double>(n_samples));
  if (has_fit) return;
  if (degenerate_ == nullptr)
    degenerate_ = &m->counter_slot("regression.degenerate");
  *degenerate_ += 1.0;
}

}  // namespace isomap
