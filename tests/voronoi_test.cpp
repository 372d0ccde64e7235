#include <gtest/gtest.h>

#include "geometry/voronoi.hpp"
#include "oracles/delaunay.hpp"
#include "oracles/voronoi_brute_force.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

TEST(Voronoi, SingleSiteOwnsWholeBox) {
  VoronoiDiagram vd({{5, 5}}, 0, 0, 10, 10);
  ASSERT_EQ(vd.size(), 1u);
  EXPECT_NEAR(vd.cell(0).polygon().area(), 100.0, 1e-9);
  for (int tag : vd.cell(0).edge_tags) EXPECT_EQ(tag, kBoundaryTag);
}

TEST(Voronoi, TwoSitesSplitAtBisector) {
  VoronoiDiagram vd({{2, 5}, {8, 5}}, 0, 0, 10, 10);
  EXPECT_NEAR(vd.cell(0).polygon().area(), 50.0, 1e-9);
  EXPECT_NEAR(vd.cell(1).polygon().area(), 50.0, 1e-9);
  EXPECT_TRUE(vd.cell(0).contains({1, 5}));
  EXPECT_FALSE(vd.cell(0).contains({9, 5}));
  EXPECT_TRUE(vd.adjacent(0, 1));
  EXPECT_TRUE(vd.adjacent(1, 0));
}

TEST(Voronoi, EdgeTagsIdentifyNeighbours) {
  VoronoiDiagram vd({{2, 5}, {8, 5}}, 0, 0, 10, 10);
  const auto n0 = vd.cell(0).neighbours();
  ASSERT_EQ(n0.size(), 1u);
  EXPECT_EQ(n0[0], 1);
}

TEST(Voronoi, GridOfFourSites) {
  VoronoiDiagram vd({{2.5, 2.5}, {7.5, 2.5}, {2.5, 7.5}, {7.5, 7.5}}, 0, 0, 10,
                    10);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(vd.cell(i).polygon().area(), 25.0, 1e-9);
  // Diagonal cells touch only at a point, not an edge.
  EXPECT_TRUE(vd.adjacent(0, 1));
  EXPECT_TRUE(vd.adjacent(0, 2));
}

TEST(Voronoi, NearestSite) {
  VoronoiDiagram vd({{1, 1}, {9, 9}}, 0, 0, 10, 10);
  EXPECT_EQ(vd.nearest_site({0, 0}), 0);
  EXPECT_EQ(vd.nearest_site({10, 10}), 1);
}

TEST(Voronoi, DuplicateSiteGetsEmptyCell) {
  VoronoiDiagram vd({{5, 5}, {5, 5}, {1, 1}}, 0, 0, 10, 10);
  EXPECT_FALSE(vd.cell(0).empty());
  EXPECT_TRUE(vd.cell(1).empty());
}

TEST(Voronoi, EmptyBoxThrows) {
  EXPECT_THROW(VoronoiDiagram({{0, 0}}, 0, 0, 0, 10), std::invalid_argument);
}

class VoronoiProperty : public ::testing::TestWithParam<int> {};

std::vector<Vec2> random_sites(Rng& rng, int n, double lo, double hi) {
  std::vector<Vec2> sites;
  for (int i = 0; i < n; ++i)
    sites.push_back({rng.uniform(lo, hi), rng.uniform(lo, hi)});
  return sites;
}

TEST_P(VoronoiProperty, CellsPartitionTheBox) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto sites = random_sites(rng, 40, 0.0, 20.0);
  VoronoiDiagram vd(sites, 0, 0, 20, 20);
  double total = 0.0;
  for (const auto& cell : vd.cells()) total += cell.polygon().area();
  EXPECT_NEAR(total, 400.0, 1e-6);
}

TEST_P(VoronoiProperty, CellContainsItsSiteAndMatchesNearest) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const auto sites = random_sites(rng, 30, 0.0, 20.0);
  VoronoiDiagram vd(sites, 0, 0, 20, 20);
  for (std::size_t i = 0; i < sites.size(); ++i)
    EXPECT_TRUE(vd.cell(i).contains(sites[i], 1e-7));
  // Random query points must land in the nearest site's cell.
  for (int trial = 0; trial < 200; ++trial) {
    const Vec2 q{rng.uniform(0, 20), rng.uniform(0, 20)};
    const int nearest = vd.nearest_site(q);
    EXPECT_TRUE(vd.cell(static_cast<std::size_t>(nearest)).contains(q, 1e-7))
        << "query " << q.x << "," << q.y;
  }
}

TEST_P(VoronoiProperty, AdjacencyIsSymmetric) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  const auto sites = random_sites(rng, 25, 0.0, 20.0);
  VoronoiDiagram vd(sites, 0, 0, 20, 20);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (int j : vd.cell(i).neighbours())
      EXPECT_TRUE(vd.adjacent(j, static_cast<int>(i)))
          << i << " -> " << j << " not symmetric";
  }
}

TEST_P(VoronoiProperty, AdjacentCellsAreDelaunayNeighbours) {
  // Voronoi adjacency (away from degeneracies) must agree with the dual
  // Delaunay triangulation built independently.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  const auto sites = random_sites(rng, 20, 2.0, 18.0);
  VoronoiDiagram vd(sites, 0, 0, 20, 20);
  DelaunayTriangulation dt(sites);
  int checked = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (int j : vd.cell(i).neighbours()) {
      // Skip near-degenerate shared edges (zero-length after clipping).
      const auto& cell = vd.cell(i);
      double shared_len = 0.0;
      for (std::size_t e = 0; e < cell.size(); ++e)
        if (cell.edge_tags[e] == j) shared_len += cell.edge(e).length();
      if (shared_len < 1e-6) continue;
      EXPECT_TRUE(dt.adjacent(static_cast<int>(i), j))
          << "voronoi edge " << i << "-" << j << " missing in delaunay";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoronoiProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// The indexed (ring-expanding) construction must reproduce the brute-force
// oracle bit for bit: both feed candidates in the same (distance, index)
// order through the same clipping arithmetic.
void expect_identical_diagrams(const std::vector<Vec2>& sites, double x0,
                               double y0, double x1, double y1) {
  const VoronoiDiagram indexed(sites, x0, y0, x1, y1);
  const std::vector<VoronoiCell> brute =
      oracle::voronoi_cells_brute_force(sites, x0, y0, x1, y1);
  ASSERT_EQ(indexed.size(), brute.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed.cell(i).site, brute[i].site) << "cell " << i;
    EXPECT_EQ(indexed.cell(i).vertices, brute[i].vertices)
        << "cell " << i << " vertices differ";
    EXPECT_EQ(indexed.cell(i).edge_tags, brute[i].edge_tags)
        << "cell " << i << " tags differ";
  }
}

class VoronoiEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(VoronoiEquivalence, IndexedMatchesBruteForceOnRandomSites) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 400);
  expect_identical_diagrams(random_sites(rng, 200, 0.0, 50.0), 0, 0, 50, 50);
}

TEST_P(VoronoiEquivalence, IndexedMatchesBruteForceWithDuplicates) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  auto sites = random_sites(rng, 60, 0.0, 20.0);
  // Exact duplicates at both ends of the index range, plus a triple.
  sites.push_back(sites[3]);
  sites.push_back(sites[3]);
  const Vec2 mid = sites[40];
  sites.insert(sites.begin() + 10, mid);
  expect_identical_diagrams(sites, 0, 0, 20, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoronoiEquivalence,
                         ::testing::Values(1, 2, 3));

TEST(VoronoiEquivalence, CollinearSites) {
  std::vector<Vec2> sites;
  for (int i = 0; i < 12; ++i)
    sites.push_back({1.0 + i * 1.5, 10.0});  // One horizontal line.
  expect_identical_diagrams(sites, 0, 0, 20, 20);
}

TEST(VoronoiEquivalence, CollinearDiagonalWithDuplicates) {
  std::vector<Vec2> sites;
  for (int i = 0; i < 10; ++i)
    sites.push_back({1.0 + i * 1.8, 1.0 + i * 1.8});
  sites.push_back(sites[5]);
  sites.push_back(sites[0]);
  expect_identical_diagrams(sites, 0, 0, 20, 20);
}

TEST(VoronoiEquivalence, ClusteredSitesFarFromEmptyCorner) {
  // All sites in one tight cluster: the ring expansion must keep growing
  // past many empty annuli without terminating early.
  Rng rng(42);
  std::vector<Vec2> sites;
  for (int i = 0; i < 50; ++i)
    sites.push_back({48.0 + rng.uniform(0, 1.5), 48.0 + rng.uniform(0, 1.5)});
  expect_identical_diagrams(sites, 0, 0, 50, 50);
}

}  // namespace
}  // namespace isomap
