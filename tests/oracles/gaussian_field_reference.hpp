#pragma once

// Oracle for GaussianField::value and GaussianField::gradient, bit for bit.
//
// The per-call formula: each bump evaluation rotates p - center with
// Vec2::rotated, which recomputes cos and sin of the bump's rotation, and
// the bumps are summed in order after base + trend·p.

#include <cmath>

#include "field/gaussian_field.hpp"

namespace isomap::oracle {

inline double gaussian_bump_value(const GaussianBump& b, Vec2 p) {
  const Vec2 d = (p - b.center).rotated(-b.rotation);
  const double qx = d.x / b.sx;
  const double qy = d.y / b.sy;
  return b.amplitude * std::exp(-0.5 * (qx * qx + qy * qy));
}

inline Vec2 gaussian_bump_gradient(const GaussianBump& b, Vec2 p) {
  const Vec2 d = (p - b.center).rotated(-b.rotation);
  const double v = gaussian_bump_value(b, p);
  // Gradient in the rotated frame, then rotate back.
  const Vec2 g_local{-d.x / (b.sx * b.sx) * v, -d.y / (b.sy * b.sy) * v};
  return g_local.rotated(b.rotation);
}

inline double gaussian_field_value(const GaussianField& f, Vec2 p) {
  double v = f.base() + f.trend().dot(p);
  for (const GaussianBump& b : f.bumps()) v += gaussian_bump_value(b, p);
  return v;
}

inline Vec2 gaussian_field_gradient(const GaussianField& f, Vec2 p) {
  Vec2 g = f.trend();
  for (const GaussianBump& b : f.bumps()) g += gaussian_bump_gradient(b, p);
  return g;
}

/// BlendedField over two Gaussian fields: (1 - alpha) * a + alpha * b.
inline double blended_field_value(const GaussianField& a,
                                  const GaussianField& b, double alpha,
                                  Vec2 p) {
  return (1.0 - alpha) * gaussian_field_value(a, p) +
         alpha * gaussian_field_value(b, p);
}

inline Vec2 blended_field_gradient(const GaussianField& a,
                                   const GaussianField& b, double alpha,
                                   Vec2 p) {
  return gaussian_field_gradient(a, p) * (1.0 - alpha) +
         gaussian_field_gradient(b, p) * alpha;
}

}  // namespace isomap::oracle
