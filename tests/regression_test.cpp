#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "field/gaussian_field.hpp"
#include "isomap/regression.hpp"
#include "oracles/regression_aos.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

using oracle::FieldSample;

/// The production fit (fit_plane_soa) over `samples`, gathered into
/// parallel arrays; a successful fit adds fit_plane_ops to `ops`, as the
/// protocol charges it.
std::optional<PlaneFit> fit_samples(const std::vector<FieldSample>& samples,
                                    double* ops = nullptr) {
  std::vector<double> xs, ys, vs;
  for (const FieldSample& s : samples) {
    xs.push_back(s.pos.x);
    ys.push_back(s.pos.y);
    vs.push_back(s.value);
  }
  const auto fit = fit_plane_soa(xs, ys, vs);
  if (fit && ops) *ops += fit_plane_ops(xs.size());
  return fit;
}

TEST(Solve3x3, Identity) {
  double a[3][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  double b[3] = {4, 5, 6};
  double x[3];
  ASSERT_TRUE(solve3x3(a, b, x));
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  EXPECT_DOUBLE_EQ(x[1], 5.0);
  EXPECT_DOUBLE_EQ(x[2], 6.0);
}

TEST(Solve3x3, RequiresPivoting) {
  // Zero on the first diagonal entry: naive elimination would fail.
  double a[3][3] = {{0, 1, 0}, {1, 0, 0}, {0, 0, 1}};
  double b[3] = {2, 3, 4};
  double x[3];
  ASSERT_TRUE(solve3x3(a, b, x));
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 4.0);
}

TEST(Solve3x3, SingularReturnsFalse) {
  double a[3][3] = {{1, 2, 3}, {2, 4, 6}, {1, 1, 1}};
  double b[3] = {1, 2, 3};
  double x[3];
  EXPECT_FALSE(solve3x3(a, b, x));
}

TEST(Solve3x3, RandomSystemsRoundTrip) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    double a[3][3], a_copy[3][3], x_true[3], b[3];
    for (int i = 0; i < 3; ++i) {
      x_true[i] = rng.uniform(-5, 5);
      for (int j = 0; j < 3; ++j) a[i][j] = rng.uniform(-5, 5);
    }
    for (int i = 0; i < 3; ++i) {
      b[i] = 0.0;
      for (int j = 0; j < 3; ++j) {
        b[i] += a[i][j] * x_true[j];
        a_copy[i][j] = a[i][j];
      }
    }
    double x[3];
    if (!solve3x3(a_copy, b, x)) continue;  // Nearly singular draw.
    for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
  }
}

TEST(FitPlane, RecoversExactPlane) {
  // Samples from v = 2 + 0.5 x - 1.25 y must be fit exactly.
  std::vector<FieldSample> samples;
  for (double x : {0.0, 1.0, 2.0, 3.0})
    for (double y : {0.0, 1.5, 2.5})
      samples.push_back({{x, y}, 2.0 + 0.5 * x - 1.25 * y});
  const auto fit = fit_samples(samples);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->c0, 2.0, 1e-9);
  EXPECT_NEAR(fit->c1, 0.5, 1e-9);
  EXPECT_NEAR(fit->c2, -1.25, 1e-9);
  EXPECT_NEAR(fit->value_at({2.0, 1.5}), 2.0 + 1.0 - 1.875, 1e-9);
  const Vec2 d = fit->descent_direction();
  EXPECT_NEAR(d.x, -0.5, 1e-9);
  EXPECT_NEAR(d.y, 1.25, 1e-9);
}

TEST(FitPlane, TooFewSamplesFails) {
  EXPECT_FALSE(fit_samples({}).has_value());
  EXPECT_FALSE(fit_samples({{{0, 0}, 1.0}}).has_value());
  EXPECT_FALSE(fit_samples({{{0, 0}, 1.0}, {{1, 0}, 2.0}}).has_value());
}

TEST(FitPlane, CollinearPositionsFail) {
  std::vector<FieldSample> samples;
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0})
    samples.push_back({{x, 2.0 * x}, x});
  EXPECT_FALSE(fit_samples(samples).has_value());
}

TEST(FitPlane, OpsScaleWithSampleCount) {
  std::vector<FieldSample> small, large;
  Rng rng(2);
  auto fill = [&](std::vector<FieldSample>& v, int n) {
    for (int i = 0; i < n; ++i)
      v.push_back({{rng.uniform(0, 10), rng.uniform(0, 10)},
                   rng.uniform(0, 5)});
  };
  fill(small, 5);
  fill(large, 50);
  double ops_small = 0.0, ops_large = 0.0;
  fit_samples(small, &ops_small);
  fit_samples(large, &ops_large);
  EXPECT_GT(ops_small, 0.0);
  EXPECT_GT(ops_large, ops_small);
  // Linear in n: ratio of the per-sample parts ~ 10.
  EXPECT_NEAR((ops_large - 40.0) / (ops_small - 40.0), 10.0, 1e-9);
}

TEST(FitPlane, NumericallyStableFarFromOrigin) {
  // Samples clustered around (10000, 10000): centring keeps the fit exact.
  std::vector<FieldSample> samples;
  for (double dx : {0.0, 0.5, 1.0})
    for (double dy : {0.0, 0.5, 1.0})
      samples.push_back(
          {{10000.0 + dx, 10000.0 + dy}, 3.0 + 0.25 * dx - 0.5 * dy});
  const auto fit = fit_samples(samples);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->c1, 0.25, 1e-6);
  EXPECT_NEAR(fit->c2, -0.5, 1e-6);
}

class FitPlaneProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FitPlaneProperty, DescentDirectionApproximatesTrueGradient) {
  // On a smooth field, regression over a small neighbourhood must estimate
  // a direction close to -grad f (the Fig. 6/7 premise).
  Rng rng(GetParam());
  GaussianField field = GaussianField::random({0, 0, 50, 50}, 5, 4.0, rng);
  int tested = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Vec2 center{rng.uniform(5, 45), rng.uniform(5, 45)};
    const Vec2 g = field.gradient(center);
    if (g.norm() < 0.05) continue;  // Skip flat spots: direction undefined.
    std::vector<FieldSample> samples{{center, field.value(center)}};
    for (int i = 0; i < 10; ++i) {
      const Vec2 p = center + Vec2{rng.uniform(-1.5, 1.5),
                                   rng.uniform(-1.5, 1.5)};
      samples.push_back({p, field.value(p)});
    }
    const auto fit = fit_samples(samples);
    ASSERT_TRUE(fit.has_value());
    const double err = angle_between(fit->descent_direction(), -g);
    EXPECT_LT(err, 30.0 * M_PI / 180.0);
    ++tested;
  }
  EXPECT_GT(tested, 10);
}

TEST_P(FitPlaneProperty, ResidualIsMinimal) {
  // Perturbing the fitted coefficients must not reduce the squared error.
  Rng rng(GetParam() + 40);
  std::vector<FieldSample> samples;
  for (int i = 0; i < 15; ++i)
    samples.push_back({{rng.uniform(0, 10), rng.uniform(0, 10)},
                       rng.uniform(-3, 3)});
  const auto fit = fit_samples(samples);
  ASSERT_TRUE(fit.has_value());
  auto sse = [&](double c0, double c1, double c2) {
    double acc = 0.0;
    for (const auto& s : samples) {
      const double r = s.value - (c0 + c1 * s.pos.x + c2 * s.pos.y);
      acc += r * r;
    }
    return acc;
  };
  const double best = sse(fit->c0, fit->c1, fit->c2);
  for (int i = 0; i < 20; ++i) {
    const double d0 = rng.uniform(-0.1, 0.1);
    const double d1 = rng.uniform(-0.1, 0.1);
    const double d2 = rng.uniform(-0.1, 0.1);
    EXPECT_GE(sse(fit->c0 + d0, fit->c1 + d1, fit->c2 + d2), best - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitPlaneProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// The SoA kernels feed the protocol's gradient hot loop; their contract
// is *bitwise* agreement with the AoS oracle on the same sample sequence,
// not merely numerical closeness — the golden capsules depend on it.

std::tuple<std::vector<FieldSample>, std::vector<double>, std::vector<double>,
           std::vector<double>>
split_samples(int n, Rng& rng) {
  std::vector<FieldSample> aos;
  std::vector<double> xs, ys, vs;
  for (int i = 0; i < n; ++i) {
    const FieldSample s{{rng.uniform(-50, 50), rng.uniform(-50, 50)},
                        rng.uniform(-10, 10)};
    aos.push_back(s);
    xs.push_back(s.pos.x);
    ys.push_back(s.pos.y);
    vs.push_back(s.value);
  }
  return {aos, xs, ys, vs};
}

TEST(FitPlaneSoA, StatsBitwiseIdenticalToAoS) {
  Rng rng(71);
  for (const int n : {3, 4, 7, 16, 33, 60}) {
    const auto [aos, xs, ys, vs] = split_samples(n, rng);
    const PlanePositionStats pa = oracle::plane_position_stats(aos);
    const PlanePositionStats ps = plane_position_stats(xs, ys);
    EXPECT_EQ(pa.n, ps.n);
    EXPECT_EQ(pa.mean.x, ps.mean.x);
    EXPECT_EQ(pa.mean.y, ps.mean.y);
    EXPECT_EQ(pa.sx, ps.sx);
    EXPECT_EQ(pa.sy, ps.sy);
    EXPECT_EQ(pa.sxx, ps.sxx);
    EXPECT_EQ(pa.sxy, ps.sxy);
    EXPECT_EQ(pa.syy, ps.syy);
    const PlaneValueStats va = oracle::plane_value_stats(aos, pa);
    const PlaneValueStats vsoa = plane_value_stats(xs, ys, vs, ps);
    EXPECT_EQ(va.mean_v, vsoa.mean_v);
    EXPECT_EQ(va.sv, vsoa.sv);
    EXPECT_EQ(va.sxv, vsoa.sxv);
    EXPECT_EQ(va.syv, vsoa.syv);
  }
}

TEST(FitPlaneSoA, FitBitwiseIdenticalToAoS) {
  Rng rng(72);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 3 + static_cast<int>(rng.uniform_int(40));
    const auto [aos, xs, ys, vs] = split_samples(n, rng);
    double ops_a = 0.0, ops_s = 0.0;
    const auto fit_a = oracle::fit_plane(aos, &ops_a);
    const auto fit_s = fit_plane_soa(xs, ys, vs);
    if (fit_s) ops_s = fit_plane_ops(xs.size());
    ASSERT_EQ(fit_a.has_value(), fit_s.has_value()) << "trial " << trial;
    EXPECT_EQ(ops_a, ops_s);
    if (!fit_a) continue;
    EXPECT_EQ(fit_a->c0, fit_s->c0) << "trial " << trial;
    EXPECT_EQ(fit_a->c1, fit_s->c1) << "trial " << trial;
    EXPECT_EQ(fit_a->c2, fit_s->c2) << "trial " << trial;
  }
}

TEST(FitPlaneSoA, DegenerateCasesAgree) {
  // Too few samples and collinear positions must fail on both paths.
  EXPECT_FALSE(fit_plane_soa(std::span<const double>{}, {}, {}).has_value());
  const std::vector<double> one_x{1.0}, one_y{2.0}, one_v{3.0};
  EXPECT_FALSE(fit_plane_soa(std::span<const double>(one_x), one_y, one_v)
                   .has_value());
  std::vector<double> xs, ys, vs;
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    xs.push_back(x);
    ys.push_back(2.0 * x);
    vs.push_back(x);
  }
  EXPECT_FALSE(
      fit_plane_soa(std::span<const double>(xs), ys, vs).has_value());
}

}  // namespace
}  // namespace isomap
