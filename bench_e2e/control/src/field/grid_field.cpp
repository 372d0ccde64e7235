#include "field/grid_field.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace isomap {

GridField::GridField(FieldBounds bounds, int nx, int ny,
                     std::vector<double> samples)
    : bounds_(bounds), nx_(nx), ny_(ny), samples_(std::move(samples)) {
  if (nx_ < 2 || ny_ < 2)
    throw std::invalid_argument("GridField: needs >= 2x2 samples");
  if (samples_.size() != static_cast<std::size_t>(nx_) * ny_)
    throw std::invalid_argument("GridField: sample count != nx*ny");
  dx_ = bounds_.width() / (nx_ - 1);
  dy_ = bounds_.height() / (ny_ - 1);
}

GridField GridField::sample(const ScalarField& source, int nx, int ny) {
  const FieldBounds b = source.bounds();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(nx) * ny);
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      const Vec2 p{b.x0 + b.width() * ix / (nx - 1),
                   b.y0 + b.height() * iy / (ny - 1)};
      samples.push_back(source.value(p));
    }
  }
  return GridField(b, nx, ny, std::move(samples));
}

double GridField::at(int ix, int iy) const {
  ix = std::clamp(ix, 0, nx_ - 1);
  iy = std::clamp(iy, 0, ny_ - 1);
  return samples_[static_cast<std::size_t>(iy) * nx_ + ix];
}

double GridField::value(Vec2 p) const {
  const double fx =
      std::clamp((p.x - bounds_.x0) / dx_, 0.0, static_cast<double>(nx_ - 1));
  const double fy =
      std::clamp((p.y - bounds_.y0) / dy_, 0.0, static_cast<double>(ny_ - 1));
  const int ix = std::min(static_cast<int>(fx), nx_ - 2);
  const int iy = std::min(static_cast<int>(fy), ny_ - 2);
  const double tx = fx - ix;
  const double ty = fy - iy;
  const double v00 = at(ix, iy);
  const double v10 = at(ix + 1, iy);
  const double v01 = at(ix, iy + 1);
  const double v11 = at(ix + 1, iy + 1);
  return v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty) +
         v01 * (1 - tx) * ty + v11 * tx * ty;
}

Vec2 GridField::gradient(Vec2 p) const {
  const double fx =
      std::clamp((p.x - bounds_.x0) / dx_, 0.0, static_cast<double>(nx_ - 1));
  const double fy =
      std::clamp((p.y - bounds_.y0) / dy_, 0.0, static_cast<double>(ny_ - 1));
  const int ix = std::min(static_cast<int>(fx), nx_ - 2);
  const int iy = std::min(static_cast<int>(fy), ny_ - 2);
  const double tx = fx - ix;
  const double ty = fy - iy;
  const double v00 = at(ix, iy);
  const double v10 = at(ix + 1, iy);
  const double v01 = at(ix, iy + 1);
  const double v11 = at(ix + 1, iy + 1);
  // Exact gradient of the bilinear patch.
  const double gx =
      ((v10 - v00) * (1 - ty) + (v11 - v01) * ty) / dx_;
  const double gy =
      ((v01 - v00) * (1 - tx) + (v11 - v10) * tx) / dy_;
  return {gx, gy};
}

SampleGrid GridField::as_sample_grid() const {
  SampleGrid grid;
  grid.nx = nx_;
  grid.ny = ny_;
  grid.origin = {bounds_.x0, bounds_.y0};
  grid.dx = dx_;
  grid.dy = dy_;
  grid.value = [this](int ix, int iy) { return at(ix, iy); };
  return grid;
}

}  // namespace isomap
