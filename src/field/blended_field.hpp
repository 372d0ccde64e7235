#pragma once

#include <cstddef>

#include "field/scalar_field.hpp"

namespace isomap {

class GaussianField;

/// Linear blend between two fields over the same bounds:
/// value = (1 - alpha) * a + alpha * b. Models a slowly evolving
/// environment — e.g. the harbor seabed silting up between the normal and
/// post-storm bathymetries — for the continuous-mapping extension.
///
/// Shared prefix: when `a` and `b` are both GaussianFields with the same
/// base and trend (bit for bit) and `a`'s bumps are, bit for bit and in
/// order, a proper prefix of `b`'s, a's value *is* b's running sum after
/// a's last bump. value() then makes one pass over b's bumps and blends
/// that prefix with the full sum — the same bits as the two-pass formula
/// for about half the exp calls (silted_harbor_bathymetry extends
/// harbor_bathymetry this way). The check runs once, at construction.
class BlendedField final : public ScalarField {
 public:
  /// Both fields must outlive this object, stay unchanged while it
  /// lives, and share bounds (a's bounds are used).
  BlendedField(const ScalarField& a, const ScalarField& b, double alpha);

  void set_alpha(double alpha) { alpha_ = alpha; }
  double alpha() const { return alpha_; }

  double value(Vec2 p) const override;
  Vec2 gradient(Vec2 p) const override;
  FieldBounds bounds() const override { return a_->bounds(); }

  /// True when value() takes the one-pass shared-prefix path. A test
  /// hook: the two paths return the same bits, so only this tells them
  /// apart.
  bool shares_prefix() const { return extended_ != nullptr; }

 private:
  const ScalarField* a_;
  const ScalarField* b_;
  double alpha_;
  /// `b` as a GaussianField when `a` is its prefix of prefix_bumps_
  /// bumps; null otherwise.
  const GaussianField* extended_ = nullptr;
  std::size_t prefix_bumps_ = 0;
};

}  // namespace isomap
