#pragma once

#include <functional>
#include <span>
#include <vector>

#include "field/scalar_field.hpp"

namespace isomap {

/// A rasterized "level map": for every pixel of a regular grid over the
/// field, the contour level index at its centre (0 = below the first
/// isolevel, K = inside the highest region). Both the ground truth and
/// every protocol's reconstruction are rasterized into this form, and the
/// paper's mapping-accuracy metric (Fig. 11: "ratio of the accurately
/// mapped area to the whole area") is the fraction of matching pixels.
class LevelMap {
 public:
  LevelMap(FieldBounds bounds, int nx, int ny);

  /// Rasterize a classifier: `classify(p)` returns the level index at p.
  static LevelMap rasterize(FieldBounds bounds, int nx, int ny,
                            const std::function<int(Vec2)>& classify);

  /// Row-batched classifier: called once per pixel row with the nx pixel
  /// centres and the row's output slots. One indirect call per row
  /// instead of one per pixel, and the classifier sees a contiguous
  /// batch it can process with its own vector kernels (e.g.
  /// ContourMap::level_index_batch).
  using RowClassifier =
      std::function<void(std::span<const Vec2>, std::span<int>)>;

  /// Rasterize a row-batched classifier; same parallel-row scan and
  /// bit-identical output for classifiers that agree pointwise.
  static LevelMap rasterize_rows(FieldBounds bounds, int nx, int ny,
                                 const RowClassifier& classify);

  /// Ground truth from a scalar field: the level index of a point is the
  /// number of isolevels at or below its field value.
  static LevelMap ground_truth(const ScalarField& field,
                               const std::vector<double>& isolevels, int nx,
                               int ny);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  const FieldBounds& bounds() const { return bounds_; }
  int at(int ix, int iy) const {
    return levels_[static_cast<std::size_t>(iy) * nx_ + ix];
  }
  int& at(int ix, int iy) {
    return levels_[static_cast<std::size_t>(iy) * nx_ + ix];
  }
  Vec2 pixel_center(int ix, int iy) const;

  /// Fraction of pixels with identical level index (requires equal
  /// dimensions).
  double accuracy_against(const LevelMap& reference) const;

  /// Highest level index present.
  int max_level() const;

 private:
  FieldBounds bounds_;
  int nx_;
  int ny_;
  std::vector<int> levels_;
};

/// Level index of a field value: the number of isolevels <= value.
int level_index_of_value(double value, const std::vector<double>& isolevels);

}  // namespace isomap
