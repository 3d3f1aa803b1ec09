// Sweep verification of the six ASYNC Table-1 entries: a campaign over every
// grid in range under every scheduler the entry's model allows (FSYNC, both
// SSYNC and all three ASYNC schedulers) must explore fully and terminate.
#include <gtest/gtest.h>

#include "src/algorithms/registry.hpp"
#include "src/engine/runner.hpp"
#include "tests/sweep_check.hpp"

namespace lumi {
namespace {

class AsyncAlgorithmTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AsyncAlgorithmTest, SweepExploresAndTerminates) {
  const algorithms::TableEntry& e = algorithms::entry(GetParam());
  const Algorithm alg = e.make();
  EXPECT_EQ(alg.num_robots(), e.upper_bound);

  // Algorithm 11 is verified for SSYNC only (PAPER.md, "Reproduction
  // gaps"), so its sweep stops at the SSYNC schedulers.
  expect_sweep_explores(GetParam(), 6, 7);
}

INSTANTIATE_TEST_SUITE_P(Table1Async, AsyncAlgorithmTest,
                         ::testing::Values("4.3.1", "4.3.2", "4.3.3", "4.3.4", "4.3.5",
                                           "4.3.6"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return "sec" + name;
                         });

TEST(AsyncAlgorithms, LargerGridsUnderRandomAsync) {
  for (const char* section : {"4.3.1", "4.3.5"}) {
    const Algorithm alg = algorithms::entry(section).make();
    const Grid grid(9, 11);
    AsyncRandomScheduler sched(12345);
    RunOptions opts;
    opts.max_steps = 3'000'000;
    const RunResult r = run_async(alg, grid, sched, opts);
    EXPECT_TRUE(r.ok()) << section << ": " << r.failure << " visited " << r.visited_count();
  }
}

}  // namespace
}  // namespace lumi
