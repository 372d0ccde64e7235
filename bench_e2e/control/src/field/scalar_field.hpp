#pragma once

#include <utility>

#include "geometry/vec2.hpp"

namespace isomap {

/// Axis-aligned field extent in normalized world coordinates.
struct FieldBounds {
  double x0 = 0.0;
  double y0 = 0.0;
  double x1 = 1.0;
  double y1 = 1.0;

  double width() const { return x1 - x0; }
  double height() const { return y1 - y0; }
  bool contains(Vec2 p) const {
    return p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1;
  }
  Vec2 clamp(Vec2 p) const;
  Vec2 center() const { return {(x0 + x1) * 0.5, (y0 + y1) * 0.5}; }
};

/// A continuous 2-D scalar attribute over a bounded field — the physical
/// quantity the sensor network samples (water depth in the paper's
/// Huanghua Harbor deployment). Implementations must be deterministic.
class ScalarField {
 public:
  virtual ~ScalarField() = default;

  virtual double value(Vec2 p) const = 0;

  /// Spatial gradient dv/d(x,y). The default is a central finite
  /// difference; analytic fields override with the exact gradient (used as
  /// the ground truth in the Fig. 7 gradient-error experiment).
  virtual Vec2 gradient(Vec2 p) const;

  virtual FieldBounds bounds() const = 0;

  /// Min/max of the field sampled on a dense grid (resolution per axis);
  /// convenience for choosing isolevels.
  std::pair<double, double> value_range(int resolution = 200) const;
};

}  // namespace isomap
