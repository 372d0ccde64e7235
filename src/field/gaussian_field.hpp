#pragma once

#include <vector>

#include "field/scalar_field.hpp"
#include "util/rng.hpp"

namespace isomap {

/// One anisotropic Gaussian bump: amplitude * exp(-q(p - center)) where q is
/// the quadratic form of a rotated ellipse with axis scales (sx, sy).
struct GaussianBump {
  Vec2 center{};
  double amplitude = 1.0;
  double sx = 1.0;       ///< Std-dev along the rotated x axis.
  double sy = 1.0;       ///< Std-dev along the rotated y axis.
  double rotation = 0.0; ///< Radians, CCW.

  double value(Vec2 p) const;
  Vec2 gradient(Vec2 p) const;
};

/// Smooth analytic field: base level + linear trend + sum of Gaussian
/// bumps. Its isolines are "well behaved" in the paper's Def. 4.1 sense
/// (smooth closed/open curves of Hausdorff dimension 1), making it a
/// faithful stand-in for the harbor bathymetry traces. The exact gradient
/// is available, which the Fig. 7 experiment uses as ground truth.
/// Each bump's rotation is fixed, so its cos and sin are computed once, at
/// construction: an evaluation costs one exp per bump.
class GaussianField final : public ScalarField {
 public:
  GaussianField(FieldBounds bounds, double base, Vec2 trend,
                std::vector<GaussianBump> bumps);

  double value(Vec2 p) const override;
  Vec2 gradient(Vec2 p) const override;
  FieldBounds bounds() const override { return bounds_; }

  /// value(p), which also stores in `prefix` the running sum after the
  /// first `k` bumps (requires k <= bumps().size()): bit for bit the
  /// value of a field with the same base and trend and only those k
  /// bumps. It adds in value()'s order; value() keeps its own loop so
  /// that plain sensing pays nothing for the split.
  double value_with_prefix(Vec2 p, std::size_t k, double& prefix) const;

  const std::vector<GaussianBump>& bumps() const { return bumps_; }
  double base() const { return base_; }
  Vec2 trend() const { return trend_; }

  /// Random smooth field over `bounds` with `num_bumps` bumps whose
  /// amplitudes lie in [-amplitude, amplitude]; used by property tests and
  /// the gradient-error sweep.
  static GaussianField random(FieldBounds bounds, int num_bumps,
                              double amplitude, Rng& rng);

 private:
  FieldBounds bounds_;
  double base_;
  Vec2 trend_;
  std::vector<GaussianBump> bumps_;
  /// Per bump, parallel to bumps_: (c, s) = cos, sin of -rotation, which
  /// turn a point into the bump's frame, and (cb, sb) = cos, sin of
  /// +rotation, which turn the gradient back.
  struct BumpTrig {
    double c, s, cb, sb;
  };
  std::vector<BumpTrig> trig_;
};

}  // namespace isomap
