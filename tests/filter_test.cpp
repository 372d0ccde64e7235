#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "isomap/filter.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "oracles/filter_bucket_walk.hpp"
#include "util/rng.hpp"

namespace isomap {
namespace {

IsolineReport report(double level, Vec2 pos, double grad_angle_deg) {
  const double a = grad_angle_deg * M_PI / 180.0;
  return {level, pos, {std::cos(a), std::sin(a)}, 0};
}

TEST(Filter, RedundantRequiresBothThresholds) {
  const InNetworkFilter filter(30.0, 4.0);
  const auto a = report(10.0, {0, 0}, 0.0);
  // Close in space and angle: redundant.
  EXPECT_TRUE(filter.redundant(a, report(10.0, {1, 0}, 10.0)));
  // Close in space, far in angle: kept.
  EXPECT_FALSE(filter.redundant(a, report(10.0, {1, 0}, 50.0)));
  // Far in space, close in angle: kept.
  EXPECT_FALSE(filter.redundant(a, report(10.0, {5, 0}, 10.0)));
  // Different isolevels are never redundant.
  EXPECT_FALSE(filter.redundant(a, report(11.0, {1, 0}, 10.0)));
}

TEST(Filter, ThresholdsAreExclusiveBounds) {
  const InNetworkFilter filter(30.0, 4.0);
  const auto a = report(10.0, {0, 0}, 0.0);
  // Exactly at the distance threshold: not redundant (strict <).
  EXPECT_FALSE(filter.redundant(a, report(10.0, {4, 0}, 0.0)));
  // Just above the angular threshold: not redundant. (Exactly at the
  // threshold is floating-point ambiguous and intentionally unspecified.)
  EXPECT_FALSE(filter.redundant(a, report(10.0, {1, 0}, 30.001)));
  EXPECT_TRUE(filter.redundant(a, report(10.0, {3.9, 0}, 29.0)));
}

TEST(Filter, ZeroThresholdsKeepEverything) {
  const InNetworkFilter filter(0.0, 0.0);
  std::vector<IsolineReport> reports;
  for (int i = 0; i < 10; ++i)
    reports.push_back(report(10.0, {i * 0.01, 0}, 0.0));
  EXPECT_EQ(filter.filter(reports).size(), 10u);
}

TEST(Filter, NegativeThresholdThrows) {
  EXPECT_THROW(InNetworkFilter(-1.0, 4.0), std::invalid_argument);
  EXPECT_THROW(InNetworkFilter(30.0, -1.0), std::invalid_argument);
}

TEST(Filter, FilterDropsClusteredReports) {
  const InNetworkFilter filter(30.0, 4.0);
  std::vector<IsolineReport> reports;
  // Ten nearly identical reports plus one distant one.
  for (int i = 0; i < 10; ++i)
    reports.push_back(report(10.0, {0.1 * i, 0}, static_cast<double>(i)));
  reports.push_back(report(10.0, {20, 0}, 0.0));
  const auto kept = filter.filter(reports);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Filter, FilterIsIdempotent) {
  const InNetworkFilter filter(30.0, 4.0);
  Rng rng(1);
  std::vector<IsolineReport> reports;
  for (int i = 0; i < 100; ++i)
    reports.push_back(report(10.0, {rng.uniform(0, 30), rng.uniform(0, 30)},
                             rng.uniform(0, 360)));
  const auto once = filter.filter(reports);
  const auto twice = filter.filter(once);
  EXPECT_EQ(once.size(), twice.size());
}

TEST(Filter, KeptSetHasNoRedundantPair) {
  const InNetworkFilter filter(30.0, 4.0);
  Rng rng(2);
  std::vector<IsolineReport> reports;
  for (int i = 0; i < 200; ++i)
    reports.push_back(report(10.0, {rng.uniform(0, 20), rng.uniform(0, 20)},
                             rng.uniform(0, 360)));
  const auto kept = filter.filter(reports);
  for (std::size_t i = 0; i < kept.size(); ++i)
    for (std::size_t j = i + 1; j < kept.size(); ++j)
      EXPECT_FALSE(filter.redundant(kept[i], kept[j]));
}

TEST(Filter, MergeAccumulatesOps) {
  const InNetworkFilter filter(30.0, 4.0);
  const std::vector<IsolineReport> table{report(10.0, {0, 0}, 0.0),
                                         report(10.0, {10, 0}, 0.0),
                                         report(10.0, {20, 0}, 0.0)};
  FilterIndex index(table);
  RoundArena arena;
  KeptSet kept(arena);
  index.keep(kept, 0);
  double ops = 0.0;
  const int second = 1, third = 2;
  filter.merge(index, kept, std::span<const int>(&second, 1), &ops);
  EXPECT_DOUBLE_EQ(ops, InNetworkFilter::kOpsPerComparison);
  filter.merge(index, kept, std::span<const int>(&third, 1), &ops);
  EXPECT_DOUBLE_EQ(ops, 3 * InNetworkFilter::kOpsPerComparison);
  EXPECT_EQ(kept.size(), 3u);
}

// Seeded differential test of the filter index against the bucket-walk
// oracle (tests/oracles/filter_bucket_walk.hpp). Reports start at random
// nodes and move node to node in random merges, as in a convergecast:
// every merge must keep the same reports in the same order, charge the
// same ops bit for bit and emit the same drop events. Positions sit on
// a coarse grid (duplicates), levels come from a pool with -0.0, 0.0 and
// NaN among many distinct ones.
TEST(Filter, IndexMergeMatchesBucketWalk) {
  const InNetworkFilter filter(40.0, 2.0);
  std::vector<double> pool{0.0, -0.0,
                           std::numeric_limits<double>::quiet_NaN()};
  for (int l = 1; l <= 40; ++l) pool.push_back(0.25 * l);
  constexpr std::size_t kNodes = 6;
  std::size_t drops = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(n));
    };
    // Few levels for some seeds (long chains), the whole pool for others.
    const std::size_t levels = seed % 2 == 0 ? 4 : pool.size();
    std::vector<IsolineReport> table;
    std::vector<std::size_t> home;
    for (int i = 0; i < 400; ++i) {
      IsolineReport r = report(pool[pick(levels)],
                               {static_cast<double>(pick(6)),
                                static_cast<double>(pick(6))},
                               15.0 * static_cast<double>(pick(6)));
      r.source = i;
      r.id = i;
      table.push_back(r);
      home.push_back(pick(kNodes));
    }

    FilterIndex index(table);
    RoundArena arena;
    std::vector<KeptSet> got;
    std::vector<std::vector<IsolineReport>> want(kNodes);
    for (std::size_t v = 0; v < kNodes; ++v) got.emplace_back(arena);
    for (std::size_t i = 0; i < table.size(); ++i) {
      index.keep(got[home[i]], static_cast<int>(i));
      want[home[i]].push_back(table[i]);
    }

    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(step);
      const std::size_t u = pick(kNodes);
      const std::size_t p = (u + 1 + pick(kNodes - 1)) % kNodes;
      std::ostringstream got_trace, want_trace;
      double got_ops = 0.0, want_ops = 0.0;
      drops += got[p].size() + got[u].size();
      {
        obs::TraceSink sink(got_trace);
        const obs::ObsScope scope(nullptr, &sink);
        filter.merge(index, got[p], got[u].ids(), &got_ops,
                     static_cast<int>(p));
        sink.flush();
      }
      {
        obs::TraceSink sink(want_trace);
        const obs::ObsScope scope(nullptr, &sink);
        oracle::merge_bucket_walk(filter, want[p], want[u], &want_ops,
                                  static_cast<int>(p));
        sink.flush();
      }
      got[u].clear();
      want[u].clear();
      drops -= got[p].size();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got_ops),
                std::bit_cast<std::uint64_t>(want_ops));
      ASSERT_EQ(got_trace.str(), want_trace.str());
      ASSERT_EQ(got[p].size(), want[p].size());
      for (std::size_t i = 0; i < want[p].size(); ++i)
        ASSERT_EQ(got[p].ids()[i], want[p][i].id) << "position " << i;
    }
  }
  EXPECT_GT(drops, 500u);  // The filter bites: the walks are not trivial.
}

TEST(Filter, SignedZeroLevelsShareAChainAndNaNNeverMatches) {
  const InNetworkFilter filter(30.0, 4.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<IsolineReport> table{
      report(0.0, {0, 0}, 0.0), report(-0.0, {1, 0}, 0.0),
      report(nan, {0, 0}, 0.0), report(nan, {0, 0}, 0.0)};
  FilterIndex index(table);
  RoundArena arena;
  KeptSet kept(arena);
  const std::vector<int> all{0, 1, 2, 3};
  double ops = 0.0;
  filter.merge(index, kept, all, &ops);
  // -0.0 == 0.0 drops report 1 against position 0; the NaN reports are
  // kept (at sizes 1 and 2) without a comparison that could match.
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.ids()[0], 0);
  EXPECT_EQ(kept.ids()[1], 2);
  EXPECT_EQ(kept.ids()[2], 3);
  EXPECT_DOUBLE_EQ(ops, (0 + 1 + 1 + 2) * InNetworkFilter::kOpsPerComparison);
}

TEST(Filter, FromQueryUsesQueryThresholds) {
  ContourQuery query;
  query.angular_separation_deg = 45.0;
  query.distance_separation = 2.0;
  const InNetworkFilter filter = InNetworkFilter::from_query(query);
  EXPECT_NEAR(filter.angular_threshold_rad(), M_PI / 4, 1e-12);
  EXPECT_DOUBLE_EQ(filter.distance_threshold(), 2.0);
}

class FilterProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(FilterProperty, LooserThresholdsKeepFewer) {
  const auto [sa, sd] = GetParam();
  Rng rng(7);
  std::vector<IsolineReport> reports;
  for (int i = 0; i < 300; ++i)
    reports.push_back(report(10.0, {rng.uniform(0, 50), rng.uniform(0, 50)},
                             rng.uniform(0, 360)));
  const InNetworkFilter base(sa, sd);
  const InNetworkFilter looser(sa * 2.0, sd * 2.0);
  EXPECT_LE(looser.filter(reports).size(), base.filter(reports).size());
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, FilterProperty,
    ::testing::Values(std::make_tuple(10.0, 1.0), std::make_tuple(30.0, 4.0),
                      std::make_tuple(45.0, 2.0), std::make_tuple(15.0, 8.0)));

}  // namespace
}  // namespace isomap
