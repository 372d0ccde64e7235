#pragma once

#include <vector>

#include "field/scalar_field.hpp"
#include "geometry/marching_squares.hpp"

namespace isomap {

/// Scalar field backed by a regular sample grid with bilinear
/// interpolation. This is the "trace" format: the paper drives its
/// simulation from a gridded sonar bathymetry survey; we sample our
/// synthetic bathymetry onto the same representation so every consumer
/// (protocols, evaluation) sees trace-like data rather than an analytic
/// formula.
class GridField final : public ScalarField {
 public:
  /// `samples` is row-major with nx columns / ny rows covering `bounds`
  /// corner-to-corner. Requires nx, ny >= 2.
  GridField(FieldBounds bounds, int nx, int ny, std::vector<double> samples);

  /// Sample any ScalarField onto an (nx x ny) grid over its own bounds.
  static GridField sample(const ScalarField& source, int nx, int ny);

  double value(Vec2 p) const override;
  Vec2 gradient(Vec2 p) const override;
  FieldBounds bounds() const override { return bounds_; }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  double at(int ix, int iy) const;

  /// Adapter for marching-squares ground-truth extraction.
  SampleGrid as_sample_grid() const;

 private:
  FieldBounds bounds_;
  int nx_;
  int ny_;
  std::vector<double> samples_;
  double dx_;
  double dy_;
};

}  // namespace isomap
