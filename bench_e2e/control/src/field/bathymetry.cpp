#include "field/bathymetry.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace isomap {
namespace {

/// Map a position expressed in fractions of the bounds to world coordinates.
Vec2 frac(const FieldBounds& b, double fx, double fy) {
  return {b.x0 + b.width() * fx, b.y0 + b.height() * fy};
}

double scale(const FieldBounds& b, double f) {
  return f * std::min(b.width(), b.height());
}

}  // namespace

GaussianField harbor_bathymetry(FieldBounds bounds) {
  std::vector<GaussianBump> bumps;
  // Dredged channel: an elongated deep trench running lower-left to
  // upper-right (positive amplitude = deeper water).
  bumps.push_back({frac(bounds, 0.5, 0.5), 4.8, scale(bounds, 0.75),
                   scale(bounds, 0.14), M_PI / 4.0});
  // Natural basin in the north-west corner.
  bumps.push_back({frac(bounds, 0.18, 0.8), 2.2, scale(bounds, 0.18),
                   scale(bounds, 0.13), 0.3});
  // Shoals (negative amplitude = shallower) south-east and near the mouth.
  bumps.push_back({frac(bounds, 0.78, 0.22), -2.6, scale(bounds, 0.2),
                   scale(bounds, 0.15), -0.4});
  bumps.push_back({frac(bounds, 0.3, 0.18), -1.4, scale(bounds, 0.12),
                   scale(bounds, 0.1), 0.9});
  bumps.push_back({frac(bounds, 0.88, 0.72), -1.1, scale(bounds, 0.12),
                   scale(bounds, 0.16), 1.2});
  // Small-scale relief: sand waves and scour holes a few node-spacings
  // across, like the sonar surveys the paper drives its simulation with.
  // Without this fine structure the isolines are unrealistically smooth
  // and far fewer isoline nodes fire than the paper reports.
  Rng detail_rng(0x150b41ULL);
  for (int i = 0; i < 10; ++i) {
    bumps.push_back({frac(bounds, detail_rng.uniform(0.05, 0.95),
                          detail_rng.uniform(0.05, 0.95)),
                     detail_rng.uniform(-0.35, 0.35),
                     scale(bounds, detail_rng.uniform(0.05, 0.12)),
                     scale(bounds, detail_rng.uniform(0.05, 0.12)),
                     detail_rng.uniform(0.0, M_PI)});
  }
  // Base depth 9 m with a mild seaward-deepening trend.
  return GaussianField(bounds, 9.0,
                       Vec2{0.2 / bounds.width(), 0.6 / bounds.height()},
                       std::move(bumps));
}

GaussianField silted_harbor_bathymetry(FieldBounds bounds) {
  GaussianField normal = harbor_bathymetry(bounds);
  std::vector<GaussianBump> bumps = normal.bumps();
  // Silt deposit sitting across the channel mid-section: a strong shallow
  // bump that takes the local minimum depth down to ~5.7 m.
  bumps.push_back({frac(bounds, 0.46, 0.54), -7.2, scale(bounds, 0.16),
                   scale(bounds, 0.1), M_PI / 3.0});
  bumps.push_back({frac(bounds, 0.62, 0.64), -2.0, scale(bounds, 0.12),
                   scale(bounds, 0.1), M_PI / 3.0});
  return GaussianField(bounds, normal.base(), normal.trend(),
                       std::move(bumps));
}

GaussianField multi_basin_bathymetry(FieldBounds bounds) {
  std::vector<GaussianBump> bumps;
  bumps.push_back({frac(bounds, 0.25, 0.3), 3.5, scale(bounds, 0.14),
                   scale(bounds, 0.12), 0.2});
  bumps.push_back({frac(bounds, 0.72, 0.28), 3.0, scale(bounds, 0.12),
                   scale(bounds, 0.16), -0.5});
  bumps.push_back({frac(bounds, 0.5, 0.74), 4.0, scale(bounds, 0.18),
                   scale(bounds, 0.12), 1.0});
  bumps.push_back({frac(bounds, 0.2, 0.78), -1.6, scale(bounds, 0.12),
                   scale(bounds, 0.1), 0.0});
  bumps.push_back({frac(bounds, 0.82, 0.8), -1.2, scale(bounds, 0.1),
                   scale(bounds, 0.12), 0.7});
  return GaussianField(bounds, 8.0, Vec2{}, std::move(bumps));
}

GaussianField sloped_seabed_bathymetry(FieldBounds bounds) {
  // Absolute feature sizes: the terrain extends rather than stretches as
  // the field grows, keeping |grad| constant (see header).
  const Vec2 c = bounds.center();
  std::vector<GaussianBump> bumps;
  bumps.push_back({c + Vec2{-6.0, 4.0}, 2.4, 7.0, 5.0, 0.5});
  bumps.push_back({c + Vec2{9.0, -7.0}, -1.8, 6.0, 8.0, -0.8});
  bumps.push_back({c + Vec2{2.0, 12.0}, 1.2, 5.0, 4.0, 1.1});
  // Depth 9.5 m at the centre, fixed slope of ~0.126 m per unit.
  const Vec2 trend{0.04, 0.12};
  const double base = 9.5 - trend.dot(c);
  return GaussianField(bounds, base, trend, std::move(bumps));
}

}  // namespace isomap
