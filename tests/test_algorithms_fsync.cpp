// Sweep verification of the eight FSYNC Table-1 entries: a campaign over
// every grid size in range must explore fully and terminate under the FSYNC
// scheduler, with per-robot action uniqueness (the algorithms are
// deterministic).
#include <gtest/gtest.h>

#include "src/algorithms/algorithms.hpp"
#include "src/algorithms/registry.hpp"
#include "src/engine/runner.hpp"
#include "tests/sweep_check.hpp"

namespace lumi {
namespace {

class FsyncAlgorithmTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FsyncAlgorithmTest, SweepExploresAndTerminates) {
  const algorithms::TableEntry& e = algorithms::entry(GetParam());
  const Algorithm alg = e.make();
  EXPECT_EQ(alg.num_robots(), e.upper_bound);
  EXPECT_EQ(alg.phi, e.phi);
  EXPECT_EQ(alg.num_colors, e.num_colors);
  EXPECT_EQ(alg.chirality, e.chirality);

  expect_sweep_explores(GetParam(), 8, 9);
}

INSTANTIATE_TEST_SUITE_P(Table1Fsync, FsyncAlgorithmTest,
                         ::testing::Values("4.2.1", "4.2.2", "4.2.3", "4.2.4", "4.2.5",
                                           "4.2.6", "4.2.7", "4.2.8"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return "sec" + name;
                         });

TEST(FsyncAlgorithms, MoveCountGrowsLinearlyInArea) {
  // The sweep route visits every node a bounded number of times, so total
  // moves must be Theta(m*n): at least one move and at most four per node.
  const Algorithm alg = algorithms::algorithm1();
  for (int rows = 3; rows <= 12; ++rows) {
    const Grid grid(rows, rows + 1);
    FsyncScheduler sched;
    const RunResult r = run_sync(alg, grid, sched);
    ASSERT_TRUE(r.ok());
    const double ratio =
        static_cast<double>(r.stats.moves) / static_cast<double>(grid.num_nodes());
    EXPECT_LT(ratio, 4.0) << grid.to_string();
    EXPECT_GT(ratio, 1.0) << grid.to_string();
  }
}

}  // namespace
}  // namespace lumi
