#include "eval/level_map.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/exec.hpp"

namespace isomap {

int level_index_of_value(double value, const std::vector<double>& isolevels) {
  int level = 0;
  for (double lambda : isolevels) {
    if (value >= lambda) ++level;
    else break;
  }
  return level;
}

LevelMap::LevelMap(FieldBounds bounds, int nx, int ny)
    : bounds_(bounds), nx_(nx), ny_(ny) {
  if (nx_ < 1 || ny_ < 1)
    throw std::invalid_argument("LevelMap: needs >= 1x1 pixels");
  levels_.assign(static_cast<std::size_t>(nx_) * ny_, 0);
}

Vec2 LevelMap::pixel_center(int ix, int iy) const {
  return {bounds_.x0 + bounds_.width() * (ix + 0.5) / nx_,
          bounds_.y0 + bounds_.height() * (iy + 0.5) / ny_};
}

LevelMap LevelMap::rasterize(FieldBounds bounds, int nx, int ny,
                             const std::function<int(Vec2)>& classify) {
  LevelMap map(bounds, nx, ny);
  // Rows rasterize across the pool; `classify` must therefore be safe to
  // call concurrently (every in-tree classifier is a pure const read).
  // Each row writes only its own pixels, so the raster is bitwise
  // identical to the serial scan.
  exec::parallel_for(static_cast<std::size_t>(ny), [&](std::size_t row) {
    const int iy = static_cast<int>(row);
    for (int ix = 0; ix < nx; ++ix)
      map.at(ix, iy) = classify(map.pixel_center(ix, iy));
  });
  return map;
}

LevelMap LevelMap::rasterize_rows(FieldBounds bounds, int nx, int ny,
                                  const RowClassifier& classify) {
  LevelMap map(bounds, nx, ny);
  // Same contract as rasterize: rows across the pool, each row writing
  // only its own pixels (the row span aliases the map's backing array).
  exec::parallel_for(static_cast<std::size_t>(ny), [&](std::size_t row) {
    const int iy = static_cast<int>(row);
    std::vector<Vec2> centers(static_cast<std::size_t>(nx));
    for (int ix = 0; ix < nx; ++ix)
      centers[static_cast<std::size_t>(ix)] = map.pixel_center(ix, iy);
    classify(centers,
             {&map.at(0, iy), static_cast<std::size_t>(nx)});
  });
  return map;
}

LevelMap LevelMap::ground_truth(const ScalarField& field,
                                const std::vector<double>& isolevels, int nx,
                                int ny) {
  return rasterize(field.bounds(), nx, ny, [&](Vec2 p) {
    return level_index_of_value(field.value(p), isolevels);
  });
}

double LevelMap::accuracy_against(const LevelMap& reference) const {
  if (reference.nx_ != nx_ || reference.ny_ != ny_)
    throw std::invalid_argument("LevelMap: dimension mismatch");
  std::size_t match = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i)
    if (levels_[i] == reference.levels_[i]) ++match;
  return levels_.empty()
             ? 1.0
             : static_cast<double>(match) / static_cast<double>(levels_.size());
}

int LevelMap::max_level() const {
  int best = 0;
  for (int level : levels_) best = std::max(best, level);
  return best;
}

}  // namespace isomap
