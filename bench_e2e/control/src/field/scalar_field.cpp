#include "field/scalar_field.hpp"

#include <algorithm>
#include <utility>

namespace isomap {

Vec2 FieldBounds::clamp(Vec2 p) const {
  return {std::clamp(p.x, x0, x1), std::clamp(p.y, y0, y1)};
}

Vec2 ScalarField::gradient(Vec2 p) const {
  const FieldBounds b = bounds();
  const double h = 1e-4 * std::max(b.width(), b.height());
  const double dx =
      (value(b.clamp({p.x + h, p.y})) - value(b.clamp({p.x - h, p.y})));
  const double dy =
      (value(b.clamp({p.x, p.y + h})) - value(b.clamp({p.x, p.y - h})));
  return Vec2{dx, dy} / (2.0 * h);
}

std::pair<double, double> ScalarField::value_range(int resolution) const {
  const FieldBounds b = bounds();
  double lo = value({b.x0, b.y0});
  double hi = lo;
  for (int iy = 0; iy <= resolution; ++iy) {
    for (int ix = 0; ix <= resolution; ++ix) {
      const Vec2 p{b.x0 + b.width() * ix / resolution,
                   b.y0 + b.height() * iy / resolution};
      const double v = value(p);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  return {lo, hi};
}

}  // namespace isomap
