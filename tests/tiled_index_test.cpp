// Equality oracles for every tiled spatial structure: the uniform tile
// grid underneath PointIndex, CommGraph and VoronoiDiagram must produce
// results identical to the linear/brute-force paths it replaced, at
// deployment scales up to 10k nodes. The Voronoi and annulus contracts
// are bitwise (same candidate order, same arithmetic); the CommGraph
// contract is exact set equality against an O(n^2) pair scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "geometry/point_index.hpp"
#include "geometry/voronoi.hpp"
#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "oracles/voronoi_brute_force.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

class TiledIndexScale : public ::testing::TestWithParam<int> {};

std::vector<Vec2> random_points(int n, double side, Rng& rng) {
  std::vector<Vec2> points;
  points.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    points.push_back({rng.uniform(0, side), rng.uniform(0, side)});
  return points;
}

TEST_P(TiledIndexScale, AnnulusMatchesLinearScan) {
  const int n = GetParam();
  const double side = std::sqrt(static_cast<double>(n));
  Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
  const std::vector<Vec2> points = random_points(n, side, rng);
  const PointIndex index(points);

  for (int trial = 0; trial < 40; ++trial) {
    const Vec2 q{rng.uniform(-2, side + 2), rng.uniform(-2, side + 2)};
    // Mix plain discs (r_lo < 0) with proper annuli, at radii from
    // sub-cell to several tile rings.
    const double r_hi = rng.uniform(0.1, side / 3.0);
    const double r_lo = trial % 3 == 0 ? -1.0 : rng.uniform(0.0, r_hi);

    std::vector<int> got;
    index.append_annulus(q, r_lo, r_hi, got);
    std::sort(got.begin(), got.end());

    std::vector<int> want;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double d = (points[i] - q).norm();
      if (d > r_lo && d <= r_hi) want.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(got, want) << "n=" << n << " trial=" << trial << " q=(" << q.x
                         << "," << q.y << ") r=(" << r_lo << "," << r_hi
                         << "]";
  }
}

TEST_P(TiledIndexScale, VoronoiIndexedMatchesBruteForceBitwise) {
  // The sink builds Voronoi diagrams over isoposition sets, which are
  // O(sqrt(n)) for an n-node deployment — so scale the site count, not
  // the deployment, to keep the O(m^2 log m) oracle affordable.
  const int n = GetParam();
  const double side = std::sqrt(static_cast<double>(n));
  const int sites = static_cast<int>(3.0 * side);
  Rng rng(static_cast<std::uint64_t>(n) * 131 + 3);
  const std::vector<Vec2> points = random_points(sites, side, rng);

  const VoronoiDiagram indexed(points, 0, 0, side, side);
  const std::vector<VoronoiCell> brute =
      oracle::voronoi_cells_brute_force(points, 0, 0, side, side);
  ASSERT_EQ(indexed.size(), brute.size());
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed.cell(i).vertices, brute[i].vertices)
        << "n=" << n << " cell " << i;
    EXPECT_EQ(indexed.cell(i).edge_tags, brute[i].edge_tags)
        << "n=" << n << " cell " << i;
    EXPECT_EQ(indexed.cell(i).neighbours(), brute[i].neighbours())
        << "n=" << n << " cell " << i;
  }
}

TEST_P(TiledIndexScale, CommGraphMatchesPairScan) {
  const int n = GetParam();
  const double side = std::sqrt(static_cast<double>(n));
  const double range = 1.5;  // density 1 -> the default scenario range.
  Rng rng(static_cast<std::uint64_t>(n) * 977 + 11);
  const FieldBounds bounds{0, 0, side, side};
  Deployment deployment = Deployment::uniform_random(bounds, n, rng);
  // Dead nodes exercise the tile grid's accept mask: they must appear in
  // no adjacency list and have an empty one themselves.
  deployment.fail_random(0.05, rng);

  const CommGraph graph(deployment, range);

  std::vector<std::vector<int>> want(static_cast<std::size_t>(n));
  const auto& nodes = deployment.nodes();
  for (int i = 0; i < n; ++i) {
    if (!nodes[static_cast<std::size_t>(i)].alive) continue;
    for (int j = i + 1; j < n; ++j) {
      if (!nodes[static_cast<std::size_t>(j)].alive) continue;
      const Vec2 d = nodes[static_cast<std::size_t>(i)].pos -
                     nodes[static_cast<std::size_t>(j)].pos;
      if (d.norm() <= range) {
        want[static_cast<std::size_t>(i)].push_back(j);
        want[static_cast<std::size_t>(j)].push_back(i);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto span = graph.neighbours(i);
    const std::vector<int> got(span.begin(), span.end());
    // CSR slices are sorted ascending; the pair scan builds them sorted
    // already (j ascends, then i-entries prepend in ascending i).
    EXPECT_EQ(got, want[static_cast<std::size_t>(i)]) << "n=" << n
                                                      << " node " << i;
    EXPECT_EQ(graph.degree(i),
              static_cast<int>(want[static_cast<std::size_t>(i)].size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, TiledIndexScale,
                         ::testing::Values(400, 2500, 10000));

}  // namespace
}  // namespace isomap
