#include "field/gaussian_field.hpp"

#include <cmath>

namespace isomap {

double GaussianBump::value(Vec2 p) const {
  const Vec2 d = (p - center).rotated(-rotation);
  const double qx = d.x / sx;
  const double qy = d.y / sy;
  return amplitude * std::exp(-0.5 * (qx * qx + qy * qy));
}

Vec2 GaussianBump::gradient(Vec2 p) const {
  const Vec2 d = (p - center).rotated(-rotation);
  const double v = value(p);
  // Gradient in the rotated frame, then rotate back.
  const Vec2 g_local{-d.x / (sx * sx) * v, -d.y / (sy * sy) * v};
  return g_local.rotated(rotation);
}

GaussianField::GaussianField(FieldBounds bounds, double base, Vec2 trend,
                             std::vector<GaussianBump> bumps)
    : bounds_(bounds), base_(base), trend_(trend), bumps_(std::move(bumps)) {}

double GaussianField::value(Vec2 p) const {
  double v = base_ + trend_.dot(p);
  for (const auto& bump : bumps_) v += bump.value(p);
  return v;
}

Vec2 GaussianField::gradient(Vec2 p) const {
  Vec2 g = trend_;
  for (const auto& bump : bumps_) g += bump.gradient(p);
  return g;
}

GaussianField GaussianField::random(FieldBounds bounds, int num_bumps,
                                    double amplitude, Rng& rng) {
  std::vector<GaussianBump> bumps;
  bumps.reserve(static_cast<std::size_t>(num_bumps));
  const double span = std::min(bounds.width(), bounds.height());
  for (int i = 0; i < num_bumps; ++i) {
    GaussianBump b;
    b.center = {rng.uniform(bounds.x0, bounds.x1),
                rng.uniform(bounds.y0, bounds.y1)};
    b.amplitude = rng.uniform(-amplitude, amplitude);
    b.sx = rng.uniform(0.1, 0.35) * span;
    b.sy = rng.uniform(0.1, 0.35) * span;
    b.rotation = rng.uniform(0.0, M_PI);
    bumps.push_back(b);
  }
  const Vec2 trend{rng.uniform(-0.2, 0.2) * amplitude / span,
                   rng.uniform(-0.2, 0.2) * amplitude / span};
  return GaussianField(bounds, 0.0, trend, std::move(bumps));
}

}  // namespace isomap
