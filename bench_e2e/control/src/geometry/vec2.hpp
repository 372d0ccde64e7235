#pragma once

#include <cmath>
#include <iosfwd>

namespace isomap {

/// 2-D vector / point with value semantics. The whole geometry layer works
/// in the paper's normalized field coordinates (unit node density).
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }
  Vec2& operator+=(Vec2 o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Vec2& operator-=(Vec2 o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  Vec2& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }
  constexpr bool operator==(const Vec2&) const = default;

  constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product (signed parallelogram area).
  constexpr double cross(Vec2 o) const { return x * o.y - y * o.x; }
  constexpr double norm2() const { return x * x + y * y; }
  double norm() const { return std::sqrt(norm2()); }
  double distance_to(Vec2 o) const { return (*this - o).norm(); }

  /// Unit vector in the same direction; returns (0,0) for the zero vector.
  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }
  /// Counter-clockwise perpendicular.
  constexpr Vec2 perp() const { return {-y, x}; }
  /// Angle in radians, in (-pi, pi].
  double angle() const { return std::atan2(y, x); }
  /// Rotate counter-clockwise by `radians`.
  Vec2 rotated(double radians) const {
    const double c = std::cos(radians), s = std::sin(radians);
    return {x * c - y * s, x * s + y * c};
  }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

/// Smallest absolute angle between two directions, in [0, pi].
/// Returns pi for degenerate (zero) inputs so callers treat them as
/// maximally separated rather than spuriously close.
double angle_between(Vec2 a, Vec2 b);

/// Orientation predicate: >0 if c is left of directed line a->b, <0 right,
/// 0 collinear (within floating-point evaluation).
double orient(Vec2 a, Vec2 b, Vec2 c);

std::ostream& operator<<(std::ostream& os, Vec2 v);

}  // namespace isomap
