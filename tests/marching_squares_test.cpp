#include <gtest/gtest.h>

#include <cmath>

#include "field/gaussian_field.hpp"
#include "field/grid_field.hpp"
#include "geometry/marching_squares.hpp"
#include "oracles/marching_squares_reference.hpp"

namespace isomap {
namespace {

SampleGrid function_grid(int n, double lo, double hi,
                         std::function<double(double, double)> f) {
  SampleGrid grid;
  grid.nx = n;
  grid.ny = n;
  grid.origin = {lo, lo};
  grid.dx = (hi - lo) / (n - 1);
  grid.dy = (hi - lo) / (n - 1);
  grid.value = [=](int ix, int iy) {
    return f(lo + ix * grid.dx, lo + iy * grid.dy);
  };
  return grid;
}

TEST(MarchingSquares, LinearFieldGivesStraightIsoline) {
  // f(x, y) = x; isoline at 5 is the vertical line x = 5.
  const auto grid = function_grid(21, 0.0, 10.0,
                                  [](double x, double) { return x; });
  const auto lines = marching_squares(grid, 5.0);
  ASSERT_EQ(lines.size(), 1u);
  for (const Vec2 p : lines[0].points()) EXPECT_NEAR(p.x, 5.0, 1e-9);
  EXPECT_NEAR(lines[0].length(), 10.0, 1e-6);
  EXPECT_FALSE(lines[0].closed());
}

TEST(MarchingSquares, CircularBumpGivesClosedLoop) {
  // f = -(r^2); isoline at -4 is the circle of radius 2.
  const auto grid = function_grid(101, -5.0, 5.0, [](double x, double y) {
    return -(x * x + y * y);
  });
  const auto lines = marching_squares(grid, -4.0);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].closed());
  for (const Vec2 p : lines[0].points())
    EXPECT_NEAR(p.norm(), 2.0, 0.05);
  EXPECT_NEAR(lines[0].length(), 2 * M_PI * 2.0, 0.1);
}

TEST(MarchingSquares, NoCrossingGivesNoLines) {
  const auto grid = function_grid(11, 0.0, 1.0,
                                  [](double, double) { return 0.0; });
  EXPECT_TRUE(marching_squares(grid, 5.0).empty());
  EXPECT_TRUE(marching_squares(grid, -5.0).empty());
}

TEST(MarchingSquares, TwoSeparateBumpsGiveTwoLoops) {
  const auto grid = function_grid(121, -6.0, 6.0, [](double x, double y) {
    const double d1 = (x + 3) * (x + 3) + y * y;
    const double d2 = (x - 3) * (x - 3) + y * y;
    return std::exp(-d1) + std::exp(-d2);
  });
  const auto lines = marching_squares(grid, 0.5);
  EXPECT_EQ(lines.size(), 2u);
  for (const auto& l : lines) EXPECT_TRUE(l.closed());
}

TEST(MarchingSquares, SaddleCaseProducesConsistentSegments) {
  // f = x*y has a saddle at origin; isolevel slightly off zero must not
  // produce crossing chains.
  const auto grid = function_grid(41, -2.0, 2.0,
                                  [](double x, double y) { return x * y; });
  const auto lines = marching_squares(grid, 0.1);
  EXPECT_GE(lines.size(), 2u);
  double total = 0.0;
  for (const auto& l : lines) total += l.length();
  EXPECT_GT(total, 2.0);
}

TEST(MarchingSquares, PointsLieOnIsolevel) {
  GaussianField field({0, 0, 10, 10}, 5.0, {0.1, 0.0},
                      {{{5, 5}, 3.0, 2.0, 1.5, 0.4}});
  const GridField sampled = GridField::sample(field, 101, 101);
  const auto lines = marching_squares(sampled.as_sample_grid(), 6.0);
  ASSERT_FALSE(lines.empty());
  for (const auto& line : lines) {
    for (const Vec2 p : line.points()) {
      // Against the *sampled* (bilinear) field the crossing is exact up to
      // interpolation within a cell.
      EXPECT_NEAR(sampled.value(p), 6.0, 0.05);
    }
  }
}

TEST(MarchingSquares, TooSmallGridThrows) {
  SampleGrid grid;
  grid.nx = 1;
  grid.ny = 5;
  grid.value = [](int, int) { return 0.0; };
  EXPECT_THROW(marching_squares(grid, 0.0), std::invalid_argument);
}

class MarchingSquaresProperty : public ::testing::TestWithParam<int> {};

TEST_P(MarchingSquaresProperty, LevelSetsAreNested) {
  // Total isoline length at a level bounding a smaller superlevel set
  // should enclose area monotonically: check region areas via pixel count.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  GaussianField field =
      GaussianField::random({0, 0, 10, 10}, 4, 3.0, rng);
  const GridField sampled = GridField::sample(field, 81, 81);
  const auto [lo, hi] = field.value_range(80);
  const double l1 = lo + 0.4 * (hi - lo);
  const double l2 = lo + 0.6 * (hi - lo);
  auto superlevel_pixels = [&](double level) {
    int count = 0;
    for (int iy = 0; iy < 81; ++iy)
      for (int ix = 0; ix < 81; ++ix)
        if (sampled.at(ix, iy) >= level) ++count;
    return count;
  };
  EXPECT_GE(superlevel_pixels(l1), superlevel_pixels(l2));
  // And both levels produce extractable isolines.
  EXPECT_FALSE(marching_squares(sampled.as_sample_grid(), l1).empty());
  EXPECT_FALSE(marching_squares(sampled.as_sample_grid(), l2).empty());
}

TEST_P(MarchingSquaresProperty, BitwiseIdenticalToReference) {
  // The row-cached, lazy-crossing kernel must reproduce the straight-line
  // reference exactly: same chains, same closure, same point bits.
  const auto expect_identical = [](const SampleGrid& grid, double level) {
    const auto got = marching_squares(grid, level);
    const auto want = oracle::marching_squares_reference(grid, level);
    ASSERT_EQ(got.size(), want.size()) << "level " << level;
    for (std::size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].points(), want[c].points()) << "chain " << c;
      EXPECT_EQ(got[c].closed(), want[c].closed()) << "chain " << c;
    }
  };
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
  GaussianField field =
      GaussianField::random({0, 0, 10, 10}, 5, 2.0, rng);
  const GridField sampled = GridField::sample(field, 97, 97);
  const auto [lo, hi] = field.value_range(80);
  for (const double t : {0.2, 0.5, 0.8})
    expect_identical(sampled.as_sample_grid(), lo + t * (hi - lo));
  // Hashed integer samples in [-2, 2]: samples and saddle centres land
  // exactly on the isolevels, where a changed comparison would show.
  SampleGrid lattice;
  lattice.nx = lattice.ny = 41;
  lattice.value = [seed = GetParam()](int ix, int iy) {
    const std::uint64_t h = (ix * 73856093ULL) ^ (iy * 19349663ULL) ^
                            (static_cast<std::uint64_t>(seed) * 83492791ULL);
    return static_cast<double>((h >> 7) % 5) - 2.0;
  };
  for (const double level : {-1.0, 0.0, 1.0}) expect_identical(lattice, level);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarchingSquaresProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace isomap
