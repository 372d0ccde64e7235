// Cross-validation "torture" suite: independent implementations and
// representations are driven over randomized inputs and must agree. These
// catch the class of bug where one component is self-consistent but wrong
// (e.g. an index that answers queries fast — and subtly differently from
// the structure it accelerates).

#include <gtest/gtest.h>

#include <cmath>

#include "eval/metrics.hpp"
#include "field/grid_field.hpp"
#include "geometry/marching_squares.hpp"
#include "geometry/point_index.hpp"
#include "geometry/voronoi.hpp"
#include "oracles/delaunay.hpp"
#include "sim/runners.hpp"

namespace isomap {
namespace {

class Torture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Torture, VoronoiCellMembershipAgreesWithIndexAndBruteForce) {
  Rng rng(GetParam());
  std::vector<Vec2> sites;
  for (int i = 0; i < 60; ++i)
    sites.push_back({rng.uniform(0, 30), rng.uniform(0, 30)});
  const VoronoiDiagram vd(sites, 0, 0, 30, 30);
  const PointIndex index(sites);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 q{rng.uniform(0, 30), rng.uniform(0, 30)};
    // Brute-force nearest.
    int brute = 0;
    for (std::size_t i = 1; i < sites.size(); ++i)
      if ((sites[i] - q).norm2() <
          (sites[static_cast<std::size_t>(brute)] - q).norm2())
        brute = static_cast<int>(i);
    const int via_vd = vd.nearest_site(q);
    const int via_index = index.nearest(q);
    EXPECT_NEAR((sites[static_cast<std::size_t>(via_vd)] - q).norm(),
                (sites[static_cast<std::size_t>(brute)] - q).norm(), 1e-12);
    EXPECT_EQ(via_vd, via_index);
    // The geometric cell of the nearest site contains q.
    EXPECT_TRUE(vd.cell(static_cast<std::size_t>(brute)).contains(q, 1e-6));
  }
}

TEST_P(Torture, GridDeploymentVoronoiSurvivesCocircularSites) {
  // Perfect lattices are the classic degenerate input (4 cocircular
  // points everywhere). The diagram must still partition the box.
  const int side = 8;
  std::vector<Vec2> sites;
  for (int r = 0; r < side; ++r)
    for (int c = 0; c < side; ++c)
      sites.push_back({c + 0.5, r + 0.5});
  const VoronoiDiagram vd(sites, 0, 0, side, side);
  double area = 0.0;
  for (const auto& cell : vd.cells()) {
    EXPECT_FALSE(cell.empty());
    area += cell.polygon().area();
  }
  EXPECT_NEAR(area, side * side, 1e-6);
  // Each cell is the unit square around its site.
  for (std::size_t i = 0; i < sites.size(); ++i)
    EXPECT_NEAR(vd.cell(i).polygon().area(), 1.0, 1e-9);
}

TEST_P(Torture, DelaunayOnLatticeDoesNotLosePoints) {
  const int side = 6;
  std::vector<Vec2> points;
  for (int r = 0; r < side; ++r)
    for (int c = 0; c < side; ++c)
      points.push_back({static_cast<double>(c), static_cast<double>(r)});
  const DelaunayTriangulation dt(points);
  // Hull area (side-1)^2 must be fully covered despite all the
  // cocircular quadruples.
  double area = 0.0;
  for (const auto& tri : dt.triangles())
    area += std::abs(orient(points[tri.v[0]], points[tri.v[1]],
                            points[tri.v[2]])) /
            2.0;
  EXPECT_NEAR(area, (side - 1) * (side - 1), 1e-6);
}

TEST_P(Torture, MarchingSquaresResolutionConvergence) {
  // The same isoline extracted at two resolutions must be close in
  // Hausdorff distance (no topology flips on smooth fields).
  Rng rng(GetParam() + 7);
  const GaussianField field =
      GaussianField::random({0, 0, 20, 20}, 4, 3.0, rng);
  const auto [lo, hi] = field.value_range(60);
  const double level = lo + 0.5 * (hi - lo);
  const GridField coarse = GridField::sample(field, 80, 80);
  const GridField fine = GridField::sample(field, 160, 160);
  const auto lines_coarse =
      marching_squares(coarse.as_sample_grid(), level);
  const auto lines_fine = marching_squares(fine.as_sample_grid(), level);
  if (lines_coarse.empty() || lines_fine.empty()) {
    EXPECT_EQ(lines_coarse.empty(), lines_fine.empty());
    return;
  }
  EXPECT_LT(hausdorff_distance(lines_coarse, lines_fine, 0.2), 1.0);
}

TEST_P(Torture, MapClassificationConsistentWithBoundaries) {
  // Raster the map at two resolutions: the coarse raster must agree with
  // the fine one away from boundaries (classification is resolution-free;
  // only pixels straddling a boundary may differ).
  ScenarioConfig config;
  config.num_nodes = 1600;
  config.field_side = 40.0;
  config.seed = GetParam();
  const Scenario s = make_scenario(config);
  const IsoMapRun run = run_isomap(s, 4);
  const auto& map = run.result.map;
  int disagreements = 0, checked = 0;
  for (int iy = 0; iy < 40; ++iy) {
    for (int ix = 0; ix < 40; ++ix) {
      const Vec2 p{(ix + 0.5), (iy + 0.5)};
      // Distance to the nearest boundary chain.
      double nearest = 1e9;
      for (int k = 0; k < map.level_count(); ++k)
        for (const auto& chain : map.isolines(k))
          nearest = std::min(nearest, chain.distance_to(p));
      if (nearest < 1.0) continue;  // Skip boundary-adjacent pixels.
      ++checked;
      const int a = map.level_index(p);
      const int b = map.level_index(p + Vec2{0.01, 0.01});
      disagreements += (a != b) ? 1 : 0;
    }
  }
  ASSERT_GT(checked, 100);
  // Interior classification must be locally stable.
  EXPECT_LE(disagreements, checked / 100);
}

TEST_P(Torture, ProtocolUnderCombinedImpairments) {
  // Everything at once: failures + sensing noise + localization error +
  // lossy links. The protocol must stay crash-free, deterministic, and
  // produce a structurally sane result.
  ScenarioConfig config;
  config.num_nodes = 1600;
  config.field_side = 40.0;
  config.seed = GetParam();
  config.failure_fraction = 0.15;
  config.reading_noise_std = 0.05;
  config.position_error_std = 0.3;
  const Scenario s = make_scenario(config);
  IsoMapOptions options;
  options.query = default_query(s.field, 4);
  options.link.loss = 0.2;
  options.link.retries = 2;
  options.adaptive_epsilon = GetParam() % 2 == 0;
  const IsoMapRun a = run_isomap(s, options);
  const IsoMapRun b = run_isomap(s, options);
  EXPECT_EQ(a.result.delivered_reports, b.result.delivered_reports);
  EXPECT_DOUBLE_EQ(a.ledger.total_tx_bytes(), b.ledger.total_tx_bytes());
  EXPECT_LE(a.result.delivered_reports, a.result.generated_reports);
  for (const auto& r : a.result.sink_reports) {
    EXPECT_TRUE(s.field.bounds().contains(r.position));
    EXPECT_TRUE(s.deployment.node(r.source).alive);
    EXPECT_TRUE(std::isfinite(r.gradient.x));
    EXPECT_TRUE(std::isfinite(r.gradient.y));
  }
  // The map is queryable everywhere without crashing.
  for (int i = 0; i < 50; ++i) {
    const int level = a.result.map.level_index(
        {(i % 7) * 5.0 + 1.0, (i / 7) * 5.0 + 1.0});
    EXPECT_GE(level, 0);
    EXPECT_LE(level, 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Torture, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace isomap
