#include "field/blended_field.hpp"

namespace isomap {

BlendedField::BlendedField(const ScalarField& a, const ScalarField& b,
                           double alpha)
    : a_(&a), b_(&b), alpha_(alpha) {}

double BlendedField::value(Vec2 p) const {
  return (1.0 - alpha_) * a_->value(p) + alpha_ * b_->value(p);
}

Vec2 BlendedField::gradient(Vec2 p) const {
  return a_->gradient(p) * (1.0 - alpha_) + b_->gradient(p) * alpha_;
}

}  // namespace isomap
