#pragma once

#include "field/scalar_field.hpp"

namespace isomap {

/// Linear blend between two fields over the same bounds:
/// value = (1 - alpha) * a + alpha * b. Models a slowly evolving
/// environment — e.g. the harbor seabed silting up between the normal and
/// post-storm bathymetries — for the continuous-mapping extension.
class BlendedField final : public ScalarField {
 public:
  /// Both fields must outlive this object and share bounds (a's bounds
  /// are used).
  BlendedField(const ScalarField& a, const ScalarField& b, double alpha);

  void set_alpha(double alpha) { alpha_ = alpha; }
  double alpha() const { return alpha_; }

  double value(Vec2 p) const override;
  Vec2 gradient(Vec2 p) const override;
  FieldBounds bounds() const override { return a_->bounds(); }

 private:
  const ScalarField* a_;
  const ScalarField* b_;
  double alpha_;
};

}  // namespace isomap
