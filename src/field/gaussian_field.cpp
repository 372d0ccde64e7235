#include "field/gaussian_field.hpp"

#include <cmath>

namespace isomap {
namespace {

// The one bump formula. (c, s) rotate p - center into the bump's frame:
// cos and sin of -rotation. The rotate-back pair (cb, sb) is cos and sin of
// +rotation. Every operation and its order is part of the readings' bit
// pattern, which the golden capsules pin: divide by sx, never multiply by
// a cached 1/sx.

inline Vec2 bump_frame(const GaussianBump& b, double c, double s, Vec2 p) {
  const Vec2 q = p - b.center;
  return {q.x * c - q.y * s, q.x * s + q.y * c};
}

inline double bump_value_at(const GaussianBump& b, Vec2 d) {
  const double qx = d.x / b.sx;
  const double qy = d.y / b.sy;
  return b.amplitude * std::exp(-0.5 * (qx * qx + qy * qy));
}

inline double bump_value(const GaussianBump& b, double c, double s, Vec2 p) {
  return bump_value_at(b, bump_frame(b, c, s, p));
}

inline Vec2 bump_gradient(const GaussianBump& b, double c, double s,
                          double cb, double sb, Vec2 p) {
  const Vec2 d = bump_frame(b, c, s, p);
  const double v = bump_value_at(b, d);
  // Gradient in the rotated frame, then rotate back.
  const Vec2 g{-d.x / (b.sx * b.sx) * v, -d.y / (b.sy * b.sy) * v};
  return {g.x * cb - g.y * sb, g.x * sb + g.y * cb};
}

}  // namespace

double GaussianBump::value(Vec2 p) const {
  return bump_value(*this, std::cos(-rotation), std::sin(-rotation), p);
}

Vec2 GaussianBump::gradient(Vec2 p) const {
  return bump_gradient(*this, std::cos(-rotation), std::sin(-rotation),
                       std::cos(rotation), std::sin(rotation), p);
}

GaussianField::GaussianField(FieldBounds bounds, double base, Vec2 trend,
                             std::vector<GaussianBump> bumps)
    : bounds_(bounds), base_(base), trend_(trend), bumps_(std::move(bumps)) {
  trig_.reserve(bumps_.size());
  for (const GaussianBump& b : bumps_)
    trig_.push_back({std::cos(-b.rotation), std::sin(-b.rotation),
                     std::cos(b.rotation), std::sin(b.rotation)});
}

double GaussianField::value(Vec2 p) const {
  double v = base_ + trend_.dot(p);
  for (std::size_t i = 0; i < bumps_.size(); ++i)
    v += bump_value(bumps_[i], trig_[i].c, trig_[i].s, p);
  return v;
}

double GaussianField::value_with_prefix(Vec2 p, std::size_t k,
                                        double& prefix) const {
  // value()'s running sum, in value()'s order, also read after bump k:
  // reading it changes no addition, so no bit.
  double v = base_ + trend_.dot(p);
  const auto add_bumps = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      v += bump_value(bumps_[i], trig_[i].c, trig_[i].s, p);
  };
  add_bumps(0, k);
  prefix = v;
  add_bumps(k, bumps_.size());
  return v;
}

Vec2 GaussianField::gradient(Vec2 p) const {
  Vec2 g = trend_;
  for (std::size_t i = 0; i < bumps_.size(); ++i) {
    const BumpTrig& t = trig_[i];
    g += bump_gradient(bumps_[i], t.c, t.s, t.cb, t.sb, p);
  }
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
