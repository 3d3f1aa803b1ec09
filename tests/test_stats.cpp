#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/algorithms/algorithms.hpp"
#include "src/campaign/aggregate.hpp"
#include "src/engine/runner.hpp"

namespace lumi {
namespace {

// --- LongStat edge cases -----------------------------------------------------
//
// Deterministic-scheduler campaign cells aggregate exactly one run (n = 1),
// and empty cells exist transiently in fresh checkpoints; neither may ever
// render as NaN or trip UB in the report writers or the adaptive policy.

TEST(LongStatEdgeCases, EmptyStreamIsAllZeroes) {
  const campaign::LongStat s;
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_ci95_halfwidth(), 0.0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(s.percentile(q), 0);
}

TEST(LongStatCi95, MatchesHandComputedIntervalAndIsExactMergeable) {
  // Samples {10, 14}: mean 12, unbiased sample variance 8, half-width
  // 1.96 * sqrt(8 / 2) = 3.92.
  campaign::LongStat s;
  s.add(10);
  s.add(14);
  EXPECT_NEAR(s.mean_ci95_halfwidth(), 3.92, 1e-12);
  // n <= 1 estimates no spread.
  campaign::LongStat one;
  one.add(10);
  EXPECT_DOUBLE_EQ(one.mean_ci95_halfwidth(), 0.0);
  // Merged shards answer with the identical interval: the half-width is a
  // pure function of the exact merged (count, sum, sum_squares).
  campaign::LongStat a, b;
  a.add(10);
  b.add(14);
  a.merge(b);
  EXPECT_EQ(a, s);
  EXPECT_DOUBLE_EQ(a.mean_ci95_halfwidth(), s.mean_ci95_halfwidth());
  // Constant streams have a zero-width interval, not rounding noise.
  campaign::LongStat flat;
  for (int i = 0; i < 5; ++i) flat.add(123456789L);
  EXPECT_DOUBLE_EQ(flat.mean_ci95_halfwidth(), 0.0);
}

TEST(LongStatEdgeCases, SingleSampleHasZeroVarianceAndExactPercentiles) {
  for (long sample : {0L, 1L, 7L, 1'000'000'000L, 3'037'000'499L}) {
    campaign::LongStat s;
    s.add(sample);
    // The sum-of-squares formula loses bits for samples past 2^26; a single
    // sample must report exactly zero spread regardless.
    EXPECT_DOUBLE_EQ(s.variance(), 0.0) << sample;
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(s.percentile(q), sample) << sample << " q=" << q;
    }
  }
}

TEST(LongStatEdgeCases, VarianceIsNeverNegative) {
  // Large near-equal samples make the exact-sums formula cancel
  // catastrophically; the clamp must keep the result at >= 0 (a negative
  // variance breaks every sqrt/threshold consumer).  Samples stay small
  // enough that sum_squares itself cannot overflow.
  campaign::LongStat s;
  s.add(1'700'000'021L);
  s.add(1'700'000'022L);
  s.add(1'700'000'023L);
  EXPECT_GE(s.variance(), 0.0);
  campaign::LongStat pair;
  pair.add(1'000'000'000L);
  pair.add(1'000'000'001L);
  EXPECT_GE(pair.variance(), 0.0);
}

TEST(LongStatEdgeCases, PercentileToleratesHostileQuantiles) {
  // 7 tops its log2 bucket [4, 8) exactly; 9's bucket top (15) clamps to the
  // observed max, so the expected answers are the samples themselves.
  campaign::LongStat s;
  s.add(7);
  s.add(9);
  // Out-of-range and non-finite q degrade to the nearest bound; casting a
  // NaN-derived rank used to be UB.
  EXPECT_EQ(s.percentile(-2.0), 7);
  EXPECT_EQ(s.percentile(2.0), 9);
  EXPECT_EQ(s.percentile(std::numeric_limits<double>::quiet_NaN()), 7);
  EXPECT_EQ(s.percentile(std::numeric_limits<double>::infinity()), 9);
  EXPECT_EQ(s.percentile(-std::numeric_limits<double>::infinity()), 7);
}

TEST(Stats, MoveCountsScaleLinearlyWithArea) {
  // The headline structural claim behind the paper's sweep route: total
  // moves are Theta(m*n).  Fit a least-squares line through (area, moves)
  // samples and bound its slope.
  std::vector<double> area;
  std::vector<double> moves;
  const Algorithm alg = algorithms::algorithm1();
  for (int n = 4; n <= 12; n += 2) {
    FsyncScheduler sched;
    const RunResult r = run_sync(alg, Grid(n, n + 1), sched);
    ASSERT_TRUE(r.ok());
    area.push_back(static_cast<double>(n * (n + 1)));
    moves.push_back(static_cast<double>(r.stats.moves));
  }
  const double k = static_cast<double>(area.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < area.size(); ++i) {
    sx += area[i];
    sy += moves[i];
    sxx += area[i] * area[i];
    sxy += area[i] * moves[i];
  }
  const double slope = (k * sxy - sx * sy) / (k * sxx - sx * sx);
  EXPECT_GT(slope, 1.0);   // at least one move per node
  EXPECT_LT(slope, 4.0);   // bounded constant per node
}

}  // namespace
}  // namespace lumi
