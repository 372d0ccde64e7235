#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "isomap/contour_map.hpp"
#include "isomap/continuous.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

const FieldBounds kBounds{0, 0, 50, 50};

/// Reports on a circle of `radius` around `center`, gradients pointing
/// radially outward (value decreases outward, as for a basin's depth).
std::vector<IsolineReport> circle_reports(Vec2 center, double radius, int n,
                                          double isolevel) {
  std::vector<IsolineReport> reports;
  for (int i = 0; i < n; ++i) {
    const double a = 2 * M_PI * i / n;
    const Vec2 dir{std::cos(a), std::sin(a)};
    reports.push_back({isolevel, center + dir * radius, dir, i});
  }
  return reports;
}

TEST(LevelRegion, SingleReportIsHalfPlane) {
  // One report at the centre with gradient +x: the region is x <= 25.
  LevelRegion region(10.0, {{10.0, {25, 25}, {1, 0}, 0}}, kBounds,
                     RegulationMode::kRules);
  EXPECT_TRUE(region.contains({10, 25}));
  EXPECT_TRUE(region.contains({10, 40}));
  EXPECT_FALSE(region.contains({40, 25}));
  EXPECT_TRUE(region.contains({25, 25}));  // On the boundary line.
}

TEST(LevelRegion, EmptyReportsContainNothing) {
  LevelRegion region(10.0, {}, kBounds, RegulationMode::kRules);
  EXPECT_FALSE(region.has_reports());
  EXPECT_FALSE(region.contains({25, 25}));
  EXPECT_TRUE(region.boundaries().empty());
}

class RegulationModes : public ::testing::TestWithParam<RegulationMode> {};

TEST_P(RegulationModes, CircleReportsApproximateDisc) {
  const Vec2 center{25, 25};
  const double radius = 10.0;
  LevelRegion region(5.0, circle_reports(center, radius, 12, 5.0), kBounds,
                     GetParam());
  // Deep inside and far outside must classify correctly.
  EXPECT_TRUE(region.contains(center));
  EXPECT_TRUE(region.contains(center + Vec2{5, 0}));
  EXPECT_FALSE(region.contains(center + Vec2{20, 0}));
  EXPECT_FALSE(region.contains({2, 2}));
  // Area close to the disc area (tangent-polygon approximations sit
  // slightly outside; Voronoi truncation slightly inside).
  int inside = 0;
  const int grid = 100;
  for (int iy = 0; iy < grid; ++iy)
    for (int ix = 0; ix < grid; ++ix)
      if (region.contains({50.0 * (ix + 0.5) / grid,
                           50.0 * (iy + 0.5) / grid}))
        ++inside;
  const double area = 2500.0 * inside / (grid * grid);
  const double disc = M_PI * radius * radius;
  EXPECT_NEAR(area, disc, 0.25 * disc);
}

TEST_P(RegulationModes, BoundaryPassesNearIsopositions) {
  const auto reports = circle_reports({25, 25}, 10.0, 10, 5.0);
  LevelRegion region(5.0, reports, kBounds, GetParam());
  if (GetParam() == RegulationMode::kBlended) {
    // Blended mode has no explicit piece geometry; verify via
    // classification: points just inside/outside the circle near each
    // report straddle the boundary.
    for (const auto& r : reports) {
      const Vec2 inward = (Vec2{25, 25} - r.position).normalized();
      EXPECT_TRUE(region.contains(r.position + inward * 1.5));
      EXPECT_FALSE(region.contains(r.position - inward * 1.5));
    }
    return;
  }
  ASSERT_FALSE(region.boundaries().empty());
  for (const auto& r : reports) {
    double nearest = 1e9;
    for (const auto& chain : region.boundaries())
      nearest = std::min(nearest, chain.distance_to(r.position));
    EXPECT_LT(nearest, 1.0) << "boundary misses isoposition";
  }
}

TEST(LevelRegion, RulesRegulationTightensCircle) {
  // With regulation the boundary should hug the circle at least as well
  // as the raw construction (smaller max deviation from the true circle).
  const Vec2 center{25, 25};
  const double radius = 10.0;
  const auto reports = circle_reports(center, radius, 8, 5.0);
  auto max_deviation = [&](RegulationMode mode) {
    LevelRegion region(5.0, reports, kBounds, mode);
    double worst = 0.0;
    for (const auto& chain : region.boundaries()) {
      for (const Vec2 p : chain.resample(0.25)) {
        worst = std::max(worst, std::abs(p.distance_to(center) - radius));
      }
    }
    return worst;
  };
  EXPECT_LE(max_deviation(RegulationMode::kRules),
            max_deviation(RegulationMode::kNone) + 1e-9);
}

TEST(LevelRegion, OpposingGradientsMakeBand) {
  // Two reports with opposing gradients bound a band (thin contour
  // region): inner points between them, outer points outside.
  std::vector<IsolineReport> reports = {
      {5.0, {20, 25}, {-1, 0}, 0},  // Region lies to +x of x=20.
      {5.0, {30, 25}, {1, 0}, 1},   // Region lies to -x of x=30.
  };
  LevelRegion region(5.0, reports, kBounds, RegulationMode::kRules);
  EXPECT_TRUE(region.contains({25, 25}));
  EXPECT_FALSE(region.contains({10, 25}));
  EXPECT_FALSE(region.contains({40, 25}));
}

TEST(ContourMap, LevelIndexIsMonotoneNested) {
  // Two concentric circles: inner at higher level.
  std::vector<IsolineReport> reports;
  for (const auto& r : circle_reports({25, 25}, 15.0, 12, 5.0))
    reports.push_back(r);
  for (const auto& r : circle_reports({25, 25}, 7.0, 10, 6.0))
    reports.push_back(r);
  const ContourMap map =
      ContourMapBuilder(kBounds).build(reports, {5.0, 6.0});
  EXPECT_EQ(map.level_count(), 2);
  EXPECT_EQ(map.level_index({25, 25}), 2);
  EXPECT_EQ(map.level_index({25, 36}), 1);  // Between the circles.
  EXPECT_EQ(map.level_index({2, 2}), 0);
  // Nesting: walking outward the level never increases.
  int prev = map.level_index({25, 25});
  for (double x = 25; x < 50; x += 1.0) {
    const int cur = map.level_index({x, 25});
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

TEST(ContourMap, MissingLevelTruncatesStack) {
  // Level 2 has no reports: points inside level-1 region count only 1.
  const auto reports = circle_reports({25, 25}, 10.0, 10, 5.0);
  const ContourMap map =
      ContourMapBuilder(kBounds).build(reports, {5.0, 6.0});
  EXPECT_EQ(map.level_count(), 2);
  EXPECT_EQ(map.level_index({25, 25}), 1);
  EXPECT_FALSE(map.region(1).has_reports());
}

TEST(ContourMap, HigherRegionClippedByLowerStack) {
  // A "higher" region reported outside the lower one contributes nothing
  // (the recursive rule keeps only the area inside lower boundaries).
  std::vector<IsolineReport> reports;
  for (const auto& r : circle_reports({15, 25}, 6.0, 8, 5.0))
    reports.push_back(r);
  for (const auto& r : circle_reports({40, 25}, 4.0, 8, 6.0))
    reports.push_back(r);
  const ContourMap map =
      ContourMapBuilder(kBounds).build(reports, {5.0, 6.0});
  // Inside the second circle but outside the first: level stops at 0.
  EXPECT_EQ(map.level_index({40, 25}), 0);
  EXPECT_EQ(map.level_index({15, 25}), 1);
}

TEST(ContourMap, BuilderGroupsReportsByLevel) {
  std::vector<IsolineReport> reports = {
      {5.0, {10, 10}, {1, 0}, 0},
      {6.0, {30, 30}, {0, 1}, 1},
      {5.0, {20, 20}, {1, 0}, 2},
  };
  const ContourMap map =
      ContourMapBuilder(kBounds).build(reports, {5.0, 6.0});
  EXPECT_EQ(map.region(0).reports().size(), 2u);
  EXPECT_EQ(map.region(1).reports().size(), 1u);
}

/// The grouping rule spelled out: level k holds, in report order, every
/// report with |isolevel - isolevels[k]| < 1e-9, scanning every level.
std::vector<std::vector<IsolineReport>> brute_force_groups(
    const std::vector<IsolineReport>& reports,
    const std::vector<double>& isolevels) {
  std::vector<std::vector<IsolineReport>> groups(isolevels.size());
  for (std::size_t k = 0; k < isolevels.size(); ++k)
    for (const IsolineReport& r : reports)
      if (std::abs(r.isolevel - isolevels[k]) < 1e-9) groups[k].push_back(r);
  return groups;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bitwise equality of two per-level report lists.
void expect_same_reports(const std::vector<IsolineReport>& got,
                         const std::vector<IsolineReport>& want,
                         const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i].isolevel), bits(want[i].isolevel)) << where << i;
    EXPECT_EQ(bits(got[i].position.x), bits(want[i].position.x)) << where << i;
    EXPECT_EQ(bits(got[i].position.y), bits(want[i].position.y)) << where << i;
    EXPECT_EQ(bits(got[i].gradient.x), bits(want[i].gradient.x)) << where << i;
    EXPECT_EQ(bits(got[i].gradient.y), bits(want[i].gradient.y)) << where << i;
    EXPECT_EQ(got[i].source, want[i].source) << where << i;
  }
}

TEST(GroupReportsByLevel, MatchesBruteForceScan) {
  // Unsorted levels, two of them closer together than the tolerance, one
  // NaN level and one level no report is near; reports half a tolerance
  // either side of a level, a NaN isolevel and random far-off values.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> isolevels = {6.0, 4.0, 5.0 + 0.6e-9, 5.0,
                                         nan, 9.0, 7.0};
  std::vector<IsolineReport> reports;
  Rng rng(5);
  int id = 0;
  const auto add = [&](double isolevel) {
    reports.push_back({isolevel,
                       {rng.uniform(5, 45), rng.uniform(5, 45)},
                       {rng.uniform(-1, 1), rng.uniform(-1, 1)},
                       id++});
  };
  for (int i = 0; i < 200; ++i) {
    const double roll = rng.uniform();
    const double level = 4.0 + std::floor(rng.uniform(0.0, 3.999));
    if (roll < 0.2) add(level);
    else if (roll < 0.35) add(level + 0.5e-9);
    else if (roll < 0.5) add(level - 0.5e-9);
    else if (roll < 0.55) add(nan);
    else if (roll < 0.6) add(5.0 + 0.3e-9);  // Near both of the close pair.
    else if (roll < 0.7) add(level + 1e-9);  // Exactly one tolerance off.
    else add(rng.uniform(3.0, 8.0));
  }

  // A stale group from an earlier call must be cleared, not appended to.
  std::vector<std::vector<IsolineReport>> groups = {{reports.front()}};
  group_reports_by_level(reports, isolevels, groups);
  const auto want = brute_force_groups(reports, isolevels);
  ASSERT_EQ(groups.size(), isolevels.size());
  for (std::size_t k = 0; k < isolevels.size(); ++k)
    expect_same_reports(groups[k], want[k], "level " + std::to_string(k) +
                                                " report ");
  // The cases bite: the close pair shares reports, NaN and the empty
  // level get none.
  int shared = 0;
  for (const IsolineReport& a : groups[2])
    for (const IsolineReport& b : groups[3]) shared += a.source == b.source;
  EXPECT_GT(shared, 0);
  EXPECT_TRUE(groups[4].empty());
  EXPECT_TRUE(groups[5].empty());

  // The builder groups by the same rule.
  const ContourMap map = ContourMapBuilder(kBounds).build(reports, isolevels);
  ASSERT_EQ(map.level_count(), static_cast<int>(isolevels.size()));
  for (int k = 0; k < map.level_count(); ++k)
    expect_same_reports(map.region(k).reports(),
                        want[static_cast<std::size_t>(k)],
                        "map level " + std::to_string(k) + " report ");
}

TEST(GroupReportsByLevel, ContinuousMapMatchesBuilderOnCloseLevels) {
  // Isolevels 0.4e-9 apart, closer than the 1e-9 grouping tolerance, so
  // one report belongs under several levels. The continuous engine's map
  // must still be ContourMapBuilder's over the post-filter reports.
  ScenarioConfig config;
  config.num_nodes = 2500;
  config.seed = 3;
  const Scenario s = make_scenario(config);
  ContinuousOptions opts;
  opts.base.query.lambda_lo = 0.0;
  opts.base.query.granularity = 0.4e-9;
  opts.base.query.lambda_hi = 1.6e-9;
  const std::vector<double> isolevels = opts.base.query.isolevels();
  ASSERT_EQ(isolevels.size(), 4u);

  // A plane rising 1e-10 per unit in x: level k crosses at x = 20 + 4k.
  std::vector<double> readings(static_cast<std::size_t>(s.deployment.size()));
  for (int i = 0; i < s.deployment.size(); ++i)
    readings[static_cast<std::size_t>(i)] =
        (s.deployment.node(i).pos.x - 20.0) * 1e-10;

  ContinuousMapper mapper(opts, s.deployment, s.graph, s.tree);
  Ledger ledger(s.deployment.size());
  const RoundResult result = mapper.round(readings, ledger);
  const std::vector<IsolineReport> reports = mapper.post_filter_reports();
  ASSERT_FALSE(reports.empty());
  const ContourMap want =
      ContourMapBuilder(s.deployment.bounds(), opts.base.regulation)
          .build(reports, isolevels);
  ASSERT_EQ(result.map.level_count(), want.level_count());
  for (int k = 0; k < want.level_count(); ++k)
    expect_same_reports(result.map.region(k).reports(), want.region(k).reports(),
                        "level " + std::to_string(k) + " report ");
  // The staging bites: some level holds reports of another isolevel.
  bool shared = false;
  for (int k = 0; k < want.level_count(); ++k)
    for (const IsolineReport& r : want.region(k).reports())
      shared |= r.isolevel != isolevels[static_cast<std::size_t>(k)];
  EXPECT_TRUE(shared);
}

INSTANTIATE_TEST_SUITE_P(Modes, RegulationModes,
                         ::testing::Values(RegulationMode::kNone,
                                           RegulationMode::kRules,
                                           RegulationMode::kBlended));

class ContourMapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContourMapProperty, ClassificationIsDeterministic) {
  Rng rng(GetParam());
  std::vector<IsolineReport> reports;
  for (int i = 0; i < 30; ++i) {
    const double a = rng.uniform(0, 2 * M_PI);
    reports.push_back({5.0,
                       {rng.uniform(5, 45), rng.uniform(5, 45)},
                       {std::cos(a), std::sin(a)},
                       i});
  }
  const ContourMap m1 = ContourMapBuilder(kBounds).build(reports, {5.0});
  const ContourMap m2 = ContourMapBuilder(kBounds).build(reports, {5.0});
  for (int i = 0; i < 100; ++i) {
    const Vec2 q{rng.uniform(0, 50), rng.uniform(0, 50)};
    EXPECT_EQ(m1.level_index(q), m2.level_index(q));
  }
}

TEST_P(ContourMapProperty, BoundariesSeparateInsideFromOutside) {
  // Any straight path whose classification flips must cross a boundary
  // chain nearby.
  Rng rng(GetParam() + 17);
  const auto reports = circle_reports(
      {rng.uniform(20, 30), rng.uniform(20, 30)}, rng.uniform(8, 12), 12,
      5.0);
  LevelRegion region(5.0, reports, kBounds, RegulationMode::kRules);
  ASSERT_FALSE(region.boundaries().empty());
  for (int trial = 0; trial < 50; ++trial) {
    const Vec2 a{rng.uniform(0, 50), rng.uniform(0, 50)};
    const Vec2 b{rng.uniform(0, 50), rng.uniform(0, 50)};
    if (region.contains(a) == region.contains(b)) continue;
    // Bisect to localize the flip, then check a boundary chain is close.
    Vec2 lo = a, hi = b;
    for (int it = 0; it < 40; ++it) {
      const Vec2 mid = (lo + hi) * 0.5;
      if (region.contains(mid) == region.contains(lo)) lo = mid;
      else hi = mid;
    }
    double nearest = 1e9;
    for (const auto& chain : region.boundaries())
      nearest = std::min(nearest, chain.distance_to(lo));
    EXPECT_LT(nearest, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContourMapProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace isomap
