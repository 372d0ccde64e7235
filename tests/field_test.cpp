#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "field/gaussian_field.hpp"
#include "field/grid_field.hpp"
#include "oracles/gaussian_field_reference.hpp"

namespace isomap {
namespace {

TEST(FieldBounds, ContainsAndClamp) {
  const FieldBounds b{0, 0, 10, 5};
  EXPECT_TRUE(b.contains({5, 2}));
  EXPECT_FALSE(b.contains({11, 2}));
  EXPECT_EQ(b.clamp({-1, 7}), (Vec2{0, 5}));
  EXPECT_DOUBLE_EQ(b.width(), 10.0);
  EXPECT_DOUBLE_EQ(b.height(), 5.0);
  EXPECT_EQ(b.center(), (Vec2{5, 2.5}));
}

TEST(GaussianBump, PeakValueAndDecay) {
  const GaussianBump bump{{0, 0}, 2.0, 1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(bump.value({0, 0}), 2.0);
  EXPECT_NEAR(bump.value({1, 0}), 2.0 * std::exp(-0.5), 1e-12);
  EXPECT_LT(bump.value({5, 0}), 1e-4);
}

TEST(GaussianBump, GradientPointsTowardPeak) {
  const GaussianBump bump{{0, 0}, 2.0, 1.0, 1.0, 0.0};
  const Vec2 g = bump.gradient({1, 0});
  EXPECT_LT(g.x, 0.0);  // Uphill is toward the centre at -x.
  EXPECT_NEAR(g.y, 0.0, 1e-12);
  EXPECT_EQ(bump.gradient({0, 0}), Vec2{});  // Stationary at peak.
}

TEST(GaussianBump, AnisotropyAndRotation) {
  const GaussianBump bump{{0, 0}, 1.0, 2.0, 0.5, M_PI / 2};
  // After 90-degree rotation, the long axis lies along y.
  EXPECT_GT(bump.value({0, 1.5}), bump.value({1.5, 0}));
}

TEST(GaussianField, ValueIsSumOfParts) {
  GaussianField field({0, 0, 10, 10}, 3.0, {0.5, 0.0},
                      {{{5, 5}, 2.0, 1.0, 1.0, 0.0}});
  EXPECT_NEAR(field.value({5, 5}), 3.0 + 2.5 + 2.0, 1e-12);
  EXPECT_NEAR(field.value({0, 0}), 3.0, 1e-6);
}

TEST(GaussianField, AnalyticGradientMatchesNumeric) {
  Rng rng(3);
  GaussianField field = GaussianField::random({0, 0, 10, 10}, 5, 3.0, rng);
  for (int i = 0; i < 50; ++i) {
    const Vec2 p{rng.uniform(1, 9), rng.uniform(1, 9)};
    const Vec2 analytic = field.gradient(p);
    // Numeric via the base-class helper (central differences).
    const ScalarField& base = field;
    const double h = 1e-5;
    const Vec2 numeric{
        (base.value({p.x + h, p.y}) - base.value({p.x - h, p.y})) / (2 * h),
        (base.value({p.x, p.y + h}) - base.value({p.x, p.y - h})) / (2 * h)};
    EXPECT_NEAR(analytic.x, numeric.x, 1e-5);
    EXPECT_NEAR(analytic.y, numeric.y, 1e-5);
  }
}

TEST(GaussianField, ValueRangeBracketsSamples) {
  Rng rng(5);
  GaussianField field = GaussianField::random({0, 0, 10, 10}, 4, 2.0, rng);
  const auto [lo, hi] = field.value_range(60);
  EXPECT_LT(lo, hi);
  for (int i = 0; i < 100; ++i) {
    const double v = field.value({rng.uniform(0, 10), rng.uniform(0, 10)});
    EXPECT_GE(v, lo - 0.2);
    EXPECT_LE(v, hi + 0.2);
  }
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }
bool same_bits(Vec2 a, Vec2 b) {
  return bits(a.x) == bits(b.x) && bits(a.y) == bits(b.y);
}

/// The bounds' four corners and centre, then `n` seeded uniform points.
std::vector<Vec2> probe_points(const FieldBounds& b, int n, Rng& rng) {
  std::vector<Vec2> pts = {{b.x0, b.y0}, {b.x1, b.y0}, {b.x0, b.y1},
                           {b.x1, b.y1}, b.center()};
  for (int i = 0; i < n; ++i)
    pts.push_back({rng.uniform(b.x0, b.x1), rng.uniform(b.y0, b.y1)});
  return pts;
}

/// Points where a field's value or gradient differs from the per-call
/// oracle in any bit.
int field_mismatches(const GaussianField& field,
                     const std::vector<Vec2>& pts) {
  int bad = 0;
  for (const Vec2 p : pts)
    if (bits(field.value(p)) != bits(oracle::gaussian_field_value(field, p)) ||
        !same_bits(field.gradient(p),
                   oracle::gaussian_field_gradient(field, p)))
      ++bad;
  return bad;
}

TEST(GaussianField, MatchesPerCallOracleBitForBit) {
  for (const double side : {50.0, 200.0, 1000.0}) {
    const FieldBounds b{0.0, 0.0, side, side};
    Rng rng(static_cast<std::uint64_t>(side));
    const std::vector<Vec2> pts = probe_points(b, 400, rng);
    const struct {
      const char* name;
      GaussianField field;
    } presets[] = {{"harbor", harbor_bathymetry(b)},
                   {"silted", silted_harbor_bathymetry(b)},
                   {"multi-basin", multi_basin_bathymetry(b)},
                   {"sloped", sloped_seabed_bathymetry(b)}};
    for (const auto& [name, field] : presets)
      EXPECT_EQ(field_mismatches(field, pts), 0) << name << ", side " << side;
    for (int seed = 1; seed <= 8; ++seed) {
      Rng field_rng(static_cast<std::uint64_t>(seed));
      const GaussianField field =
          GaussianField::random(b, 2 * seed, 3.0, field_rng);
      EXPECT_EQ(field_mismatches(field, pts), 0)
          << "random seed " << seed << ", side " << side;
      for (const GaussianBump& bump : field.bumps())
        for (const Vec2 p : pts) {
          ASSERT_EQ(bits(bump.value(p)),
                    bits(oracle::gaussian_bump_value(bump, p)));
          ASSERT_TRUE(same_bits(bump.gradient(p),
                                oracle::gaussian_bump_gradient(bump, p)));
        }
    }
  }
}

TEST(BlendedField, MatchesPerCallOracleBitForBit) {
  for (const double side : {50.0, 200.0, 1000.0}) {
    const FieldBounds b{0.0, 0.0, side, side};
    Rng rng(static_cast<std::uint64_t>(side) + 1);
    const std::vector<Vec2> pts = probe_points(b, 400, rng);
    const GaussianField harbor = harbor_bathymetry(b);
    const GaussianField silted = silted_harbor_bathymetry(b);
    for (const double alpha : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      const BlendedField blend(harbor, silted, alpha);
      EXPECT_TRUE(blend.shares_prefix());
      int bad = 0;
      for (const Vec2 p : pts)
        if (bits(blend.value(p)) !=
                bits(oracle::blended_field_value(harbor, silted, alpha, p)) ||
            !same_bits(blend.gradient(p), oracle::blended_field_gradient(
                                              harbor, silted, alpha, p)))
          ++bad;
      EXPECT_EQ(bad, 0) << "alpha " << alpha << ", side " << side;
    }
  }
}

/// Points where a blend of `a` toward `b` differs from the two-pass
/// oracle in any bit, over several alphas.
int blend_mismatches(const GaussianField& a, const GaussianField& b,
                     const std::vector<Vec2>& pts) {
  int bad = 0;
  for (const double alpha : {0.0, 0.3, 0.5, 1.0}) {
    const BlendedField blend(a, b, alpha);
    for (const Vec2 p : pts)
      if (bits(blend.value(p)) !=
          bits(oracle::blended_field_value(a, b, alpha, p)))
        ++bad;
  }
  return bad;
}

GaussianField with_bumps(const GaussianField& f,
                         std::vector<GaussianBump> bumps) {
  return GaussianField(f.bounds(), f.base(), f.trend(), std::move(bumps));
}

TEST(BlendedField, OnlyABitExactPrefixTakesTheOnePassPath) {
  const FieldBounds b{0.0, 0.0, 200.0, 200.0};
  Rng rng(27);
  const std::vector<Vec2> pts = probe_points(b, 200, rng);
  const GaussianField harbor = harbor_bathymetry(b);
  const GaussianField silted = silted_harbor_bathymetry(b);
  const auto up = [](double v) { return std::nextafter(v, 1e300); };
  const auto expect_two_pass = [&](const GaussianField& a,
                                   const GaussianField& b2,
                                   const std::string& name) {
    EXPECT_FALSE(BlendedField(a, b2, 0.5).shares_prefix()) << name;
    EXPECT_EQ(blend_mismatches(a, b2, pts), 0) << name;
  };

  // A shorter prefix counts too: the base and trend alone.
  const GaussianField bare = with_bumps(harbor, {});
  EXPECT_TRUE(BlendedField(bare, silted, 0.5).shares_prefix());
  EXPECT_EQ(blend_mismatches(bare, silted, pts), 0);

  expect_two_pass(harbor, harbor, "a == b");
  expect_two_pass(silted, harbor, "a longer than b");
  expect_two_pass(GaussianField(b, up(harbor.base()), harbor.trend(),
                                harbor.bumps()),
                  silted, "base + 1 ulp");
  expect_two_pass(GaussianField(b, harbor.base(),
                                {harbor.trend().x, up(harbor.trend().y)},
                                harbor.bumps()),
                  silted, "trend + 1 ulp");
  for (int field = 0; field < 6; ++field) {
    std::vector<GaussianBump> bumps = harbor.bumps();
    GaussianBump& bump = bumps[3];
    double* const fields[] = {&bump.center.x, &bump.center.y, &bump.amplitude,
                              &bump.sx,       &bump.sy,       &bump.rotation};
    *fields[field] = up(*fields[field]);
    expect_two_pass(with_bumps(harbor, std::move(bumps)), silted,
                    "bump field " + std::to_string(field) + " + 1 ulp");
  }
  std::vector<GaussianBump> swapped = harbor.bumps();
  std::swap(swapped[0], swapped[1]);
  expect_two_pass(with_bumps(harbor, swapped), silted, "reordered bumps");

  // -0.0 against 0.0: equal under ==, different bits.
  std::vector<GaussianBump> plus = {{{50, 50}, 1.0, 20.0, 30.0, 0.0}};
  std::vector<GaussianBump> minus = plus;
  minus[0].rotation = -0.0;
  minus.push_back({{120, 80}, -0.5, 25.0, 15.0, 0.4});
  const GaussianField zero(b, 3.0, {0.01, 0.02}, plus);
  const GaussianField minus_zero(b, 3.0, {0.01, 0.02}, minus);
  expect_two_pass(zero, minus_zero, "-0.0 against 0.0");
  minus[0].rotation = 0.0;
  EXPECT_TRUE(
      BlendedField(zero, with_bumps(minus_zero, minus), 0.5).shares_prefix());
}

TEST(BlendedField, NonGaussianOperandTakesTheTwoPassPath) {
  const FieldBounds b{0.0, 0.0, 50.0, 50.0};
  Rng rng(28);
  const std::vector<Vec2> pts = probe_points(b, 200, rng);
  const GaussianField harbor = harbor_bathymetry(b);
  const GaussianField silted = silted_harbor_bathymetry(b);
  const BlendedField inner(harbor, silted, 0.25);
  const GridField grid = GridField::sample(harbor, 64, 64);
  const std::pair<const ScalarField*, const ScalarField*> pairs[] = {
      {&inner, &silted}, {&harbor, &inner}, {&grid, &silted}};
  for (const auto& [a, b2] : pairs) {
    for (const double alpha : {0.0, 0.3, 1.0}) {
      const BlendedField blend(*a, *b2, alpha);
      EXPECT_FALSE(blend.shares_prefix());
      for (const Vec2 p : pts)
        ASSERT_EQ(bits(blend.value(p)),
                  bits((1.0 - alpha) * a->value(p) + alpha * b2->value(p)));
    }
  }
  // The inner blend itself is the harbor -> silted pair.
  for (const Vec2 p : pts)
    ASSERT_EQ(bits(inner.value(p)),
              bits(oracle::blended_field_value(harbor, silted, 0.25, p)));
}

TEST(GridField, ExactOnLattice) {
  GaussianField src({0, 0, 10, 10}, 1.0, {0.3, -0.2},
                    {{{4, 6}, 2.0, 1.5, 1.0, 0.7}});
  const GridField grid = GridField::sample(src, 41, 41);
  for (int iy = 0; iy < 41; ++iy) {
    for (int ix = 0; ix < 41; ++ix) {
      const Vec2 p{ix * 0.25, iy * 0.25};
      EXPECT_NEAR(grid.value(p), src.value(p), 1e-12);
    }
  }
}

TEST(GridField, BilinearReproducesPlaneExactly) {
  // A plane is reproduced exactly by bilinear interpolation.
  GaussianField plane({0, 0, 10, 10}, 2.0, {0.7, -0.3}, {});
  const GridField grid = GridField::sample(plane, 11, 11);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const Vec2 p{rng.uniform(0, 10), rng.uniform(0, 10)};
    EXPECT_NEAR(grid.value(p), plane.value(p), 1e-10);
    const Vec2 g = grid.gradient(p);
    EXPECT_NEAR(g.x, 0.7, 1e-10);
    EXPECT_NEAR(g.y, -0.3, 1e-10);
  }
}

TEST(GridField, ClampsOutsideBounds) {
  GaussianField plane({0, 0, 10, 10}, 0.0, {1.0, 0.0}, {});
  const GridField grid = GridField::sample(plane, 11, 11);
  EXPECT_NEAR(grid.value({-5, 5}), 0.0, 1e-12);
  EXPECT_NEAR(grid.value({20, 5}), 10.0, 1e-12);
}

TEST(GridField, InvalidConstructionThrows) {
  EXPECT_THROW(GridField({0, 0, 1, 1}, 1, 2, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(GridField({0, 0, 1, 1}, 2, 2, {1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(GridField, SampleGridAdapterMatches) {
  GaussianField src({0, 0, 4, 4}, 1.0, {}, {});
  const GridField grid = GridField::sample(src, 5, 5);
  const SampleGrid sg = grid.as_sample_grid();
  EXPECT_EQ(sg.nx, 5);
  EXPECT_EQ(sg.ny, 5);
  EXPECT_DOUBLE_EQ(sg.value(2, 3), grid.at(2, 3));
  EXPECT_EQ(sg.world(0, 0), (Vec2{0, 0}));
  EXPECT_EQ(sg.world(4, 4), (Vec2{4, 4}));
}

TEST(Bathymetry, HarborDepthRangeIsPlausible) {
  const GaussianField field = harbor_bathymetry();
  const auto [lo, hi] = field.value_range(100);
  // Natural seabed around 7-9 m, dredged channel near the 13.5 m design
  // depth.
  EXPECT_GT(lo, 4.0);
  EXPECT_LT(lo, 9.0);
  EXPECT_GT(hi, 12.5);
  EXPECT_LT(hi, 15.5);
}

TEST(Bathymetry, SiltedVariantIsShallowerAtDeposit) {
  const GaussianField normal = harbor_bathymetry();
  const GaussianField silted = silted_harbor_bathymetry();
  const auto [lo_n, hi_n] = normal.value_range(100);
  const auto [lo_s, hi_s] = silted.value_range(100);
  EXPECT_LT(lo_s, lo_n);  // The silt deposit creates a shallower minimum.
  EXPECT_LT(lo_s, 6.5);   // Near the paper's post-storm 5.7 m.
  EXPECT_NEAR(hi_s, hi_n, 1.5);
}

TEST(Bathymetry, MultiBasinHasMultipleRegions) {
  const GaussianField field = multi_basin_bathymetry();
  const auto [lo, hi] = field.value_range(100);
  const double mid = lo + 0.75 * (hi - lo);
  // Count disjoint superlevel components via a coarse flood fill.
  const int n = 60;
  std::vector<int> label(static_cast<std::size_t>(n) * n, 0);
  auto idx = [&](int ix, int iy) { return static_cast<std::size_t>(iy) * n + ix; };
  auto value_at = [&](int ix, int iy) {
    return field.value({50.0 * ix / (n - 1), 50.0 * iy / (n - 1)});
  };
  int components = 0;
  for (int iy = 0; iy < n; ++iy) {
    for (int ix = 0; ix < n; ++ix) {
      if (label[idx(ix, iy)] != 0 || value_at(ix, iy) < mid) continue;
      ++components;
      std::vector<std::pair<int, int>> stack{{ix, iy}};
      label[idx(ix, iy)] = components;
      while (!stack.empty()) {
        auto [cx, cy] = stack.back();
        stack.pop_back();
        const int dx[] = {1, -1, 0, 0}, dy[] = {0, 0, 1, -1};
        for (int k = 0; k < 4; ++k) {
          const int nx2 = cx + dx[k], ny2 = cy + dy[k];
          if (nx2 < 0 || nx2 >= n || ny2 < 0 || ny2 >= n) continue;
          if (label[idx(nx2, ny2)] != 0 || value_at(nx2, ny2) < mid) continue;
          label[idx(nx2, ny2)] = components;
          stack.push_back({nx2, ny2});
        }
      }
    }
  }
  EXPECT_GE(components, 2);
}

}  // namespace
}  // namespace isomap
