#include <gtest/gtest.h>

#include "geometry/polygon.hpp"
#include "oracles/delaunay.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

TEST(Circumcircle, KnownCircle) {
  // Unit circle through (1,0), (0,1), (-1,0).
  EXPECT_TRUE(in_circumcircle({1, 0}, {0, 1}, {-1, 0}, {0, 0}));
  EXPECT_FALSE(in_circumcircle({1, 0}, {0, 1}, {-1, 0}, {2, 0}));
}

TEST(Delaunay, FewerThanThreePointsNoTriangles) {
  EXPECT_TRUE(DelaunayTriangulation({}).triangles().empty());
  EXPECT_TRUE(DelaunayTriangulation({{0, 0}}).triangles().empty());
  EXPECT_TRUE(DelaunayTriangulation({{0, 0}, {1, 1}}).triangles().empty());
}

TEST(Delaunay, TriangleOfThree) {
  DelaunayTriangulation dt({{0, 0}, {1, 0}, {0, 1}});
  ASSERT_EQ(dt.triangles().size(), 1u);
  EXPECT_TRUE(dt.adjacent(0, 1));
  EXPECT_TRUE(dt.adjacent(1, 2));
  EXPECT_TRUE(dt.adjacent(0, 2));
}

TEST(Delaunay, SquareHasTwoTriangles) {
  DelaunayTriangulation dt({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(dt.triangles().size(), 2u);
}

TEST(Delaunay, NeighboursOfCentrePoint) {
  DelaunayTriangulation dt(
      {{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}});
  const auto nb = dt.neighbours(4);
  EXPECT_EQ(nb.size(), 4u);  // Centre connects to all corners.
}

TEST(Delaunay, LocateAndBarycentric) {
  DelaunayTriangulation dt({{0, 0}, {4, 0}, {0, 4}});
  const int t = dt.locate({1, 1});
  ASSERT_GE(t, 0);
  const auto bary = dt.barycentric(t, {1, 1});
  EXPECT_NEAR(bary[0] + bary[1] + bary[2], 1.0, 1e-12);
  for (double b : bary) EXPECT_GE(b, -1e-12);
  EXPECT_EQ(dt.locate({10, 10}), -1);
}

class DelaunayProperty : public ::testing::TestWithParam<int> {};

TEST_P(DelaunayProperty, EmptyCircumcircleProperty) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<Vec2> pts;
  for (int i = 0; i < 30; ++i)
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  DelaunayTriangulation dt(pts);
  ASSERT_FALSE(dt.triangles().empty());
  for (const auto& tri : dt.triangles()) {
    for (std::size_t p = 0; p < pts.size(); ++p) {
      if (tri.has_vertex(static_cast<int>(p))) continue;
      EXPECT_FALSE(in_circumcircle(pts[tri.v[0]], pts[tri.v[1]],
                                   pts[tri.v[2]], pts[p]))
          << "point " << p << " violates empty-circumcircle";
    }
  }
}

TEST_P(DelaunayProperty, TrianglesAreCcwAndCoverHullArea) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 50);
  std::vector<Vec2> pts;
  for (int i = 0; i < 25; ++i)
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
  DelaunayTriangulation dt(pts);
  double tri_area = 0.0;
  for (const auto& tri : dt.triangles()) {
    const double o = orient(pts[tri.v[0]], pts[tri.v[1]], pts[tri.v[2]]);
    EXPECT_GT(o, 0.0);
    tri_area += o / 2.0;
  }
  const double hull_area = convex_hull(pts).area();
  EXPECT_NEAR(tri_area, hull_area, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DelaunayProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace isomap
