#include "field/blended_field.hpp"

#include <bit>
#include <cstdint>

#include "field/gaussian_field.hpp"

namespace isomap {
namespace {

/// Bit-pattern equality: stricter than `==` (0.0 vs -0.0 differ), so the
/// prefix is shared only where both passes would consume the same bits.
bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_bump(const GaussianBump& x, const GaussianBump& y) {
  return same_bits(x.center.x, y.center.x) &&
         same_bits(x.center.y, y.center.y) &&
         same_bits(x.amplitude, y.amplitude) && same_bits(x.sx, y.sx) &&
         same_bits(x.sy, y.sy) && same_bits(x.rotation, y.rotation);
}

/// True when `b` is `a` with one or more bumps appended.
bool extends(const GaussianField& a, const GaussianField& b) {
  if (!same_bits(a.base(), b.base()) ||
      !same_bits(a.trend().x, b.trend().x) ||
      !same_bits(a.trend().y, b.trend().y) ||
      a.bumps().size() >= b.bumps().size())
    return false;
  for (std::size_t i = 0; i < a.bumps().size(); ++i)
    if (!same_bump(a.bumps()[i], b.bumps()[i])) return false;
  return true;
}

}  // namespace

BlendedField::BlendedField(const ScalarField& a, const ScalarField& b,
                           double alpha)
    : a_(&a), b_(&b), alpha_(alpha) {
  const auto* ga = dynamic_cast<const GaussianField*>(&a);
  const auto* gb = dynamic_cast<const GaussianField*>(&b);
  if (ga != nullptr && gb != nullptr && extends(*ga, *gb)) {
    extended_ = gb;
    prefix_bumps_ = ga->bumps().size();
  }
}

double BlendedField::value(Vec2 p) const {
  if (extended_ != nullptr) {
    double prefix;
    const double full = extended_->value_with_prefix(p, prefix_bumps_, prefix);
    return (1.0 - alpha_) * prefix + alpha_ * full;
  }
  return (1.0 - alpha_) * a_->value(p) + alpha_ * b_->value(p);
}

Vec2 BlendedField::gradient(Vec2 p) const {
  return a_->gradient(p) * (1.0 - alpha_) + b_->gradient(p) * alpha_;
}

}  // namespace isomap
