#include <gtest/gtest.h>

#include "src/algorithms/algorithms.hpp"
#include "src/campaign/campaign.hpp"
#include "src/core/rng.hpp"
#include "src/engine/runner.hpp"

namespace lumi {
namespace {

TEST(FsyncScheduler, SelectsEveryEnabledRobot) {
  const Algorithm alg = algorithms::algorithm1();
  const Grid grid(2, 4);
  const Configuration c = alg.initial_configuration(grid);
  const auto enabled = all_enabled_actions(alg, c);
  FsyncScheduler sched;
  std::vector<RobotAction> selected;
  sched.select(enabled, selected);
  EXPECT_EQ(selected.size(), 2u);
}

TEST(SsyncRandomScheduler, SelectsNonemptySubsetOfEnabled) {
  const Algorithm alg = algorithms::algorithm6();
  const Grid grid(2, 4);
  const Configuration c = alg.initial_configuration(grid);
  const auto enabled = all_enabled_actions(alg, c);
  SsyncRandomScheduler sched(7);
  std::vector<RobotAction> selected;
  for (int i = 0; i < 20; ++i) {
    sched.select(enabled, selected);
    ASSERT_FALSE(selected.empty());
    for (const RobotAction& ra : selected) {
      EXPECT_FALSE(enabled[static_cast<std::size_t>(ra.robot)].empty());
    }
  }
}

TEST(SsyncRoundRobin, RotatesThroughRobots) {
  const Algorithm alg = algorithms::algorithm1();
  const Grid grid(2, 4);
  const Configuration c = alg.initial_configuration(grid);
  const auto enabled = all_enabled_actions(alg, c);
  SsyncRoundRobinScheduler sched;
  std::vector<RobotAction> first;
  std::vector<RobotAction> second;
  sched.select(enabled, first);
  sched.select(enabled, second);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(first[0].robot, second[0].robot);
}

TEST(AsyncCentralized, FinishesStartedCyclesFirst) {
  const Algorithm alg = algorithms::algorithm10();
  const Grid grid(2, 4);
  AsyncEngine engine(alg, alg.initial_configuration(grid));
  AsyncCentralizedScheduler sched;
  const auto effective = engine.effective_robots();
  ASSERT_FALSE(effective.empty());
  const int first = sched.pick_robot(engine, effective);
  engine.activate(first, engine.look_choices(first).front());
  // With robot `first` mid-cycle, the scheduler must keep picking it.
  const auto effective2 = engine.effective_robots();
  EXPECT_EQ(sched.pick_robot(engine, effective2), first);
}

// --- cross-platform determinism ---------------------------------------------
//
// Scheduler randomness goes through the in-repo Lemire bounded draw over
// std::mt19937 (whose output stream the standard pins down exactly), never
// through std::uniform_int_distribution / std::shuffle, whose algorithms
// differ between libstdc++ and libc++.  The golden sequences below therefore
// hold on every compiler and platform; a failure means scheduler decisions —
// and with them campaign reports and checkpoints — stopped being portable.

TEST(PortableRng, BoundedDrawGoldenSequences) {
  std::mt19937 a(42);
  const std::uint32_t want_a[] = {3, 7, 9, 1, 7, 7, 5, 5};
  for (std::uint32_t want : want_a) EXPECT_EQ(bounded_draw(a, 10), want);

  std::mt19937 b(7);
  const std::uint32_t want_b[] = {0, 0, 2, 0, 1, 2, 2, 1};
  for (std::uint32_t want : want_b) EXPECT_EQ(bounded_draw(b, 3), want);

  // n = 1 never consumes entropy-rejection retries and always yields 0.
  std::mt19937 c(1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bounded_draw(c, 1), 0u);
}

TEST(PortableRng, BoundedDrawStaysInRange) {
  std::mt19937 rng(2026);
  for (std::uint32_t n : {1u, 2u, 3u, 5u, 7u, 1000u}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(bounded_draw(rng, n), n);
  }
}

TEST(PortableRng, FisherYatesGoldenPermutation) {
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::mt19937 rng(7);
  fisher_yates(v, rng);
  const std::vector<int> want{9, 3, 1, 5, 4, 7, 8, 6, 2, 0};
  EXPECT_EQ(v, want);

  std::vector<int> tiny{1};
  std::mt19937 rng2(7);
  fisher_yates(tiny, rng2);  // size <= 1: no draws, no out-of-range access
  EXPECT_EQ(tiny, std::vector<int>{1});
}

TEST(SsyncRandomScheduler, GoldenDecisionSequence) {
  // 4 robots, one enabled behavior each: the selection is exactly the coin
  // pattern of seed 9 (resampling empty rounds), independent of platform.
  // One buffer across rounds, as run_sync passes it.
  const std::vector<std::vector<Action>> enabled(4, std::vector<Action>{Action{}});
  SsyncRandomScheduler sched(9);
  const std::vector<std::vector<int>> want = {{2}, {3}, {2}, {0, 1, 3}};
  std::vector<RobotAction> selected;
  for (const std::vector<int>& round : want) {
    sched.select(enabled, selected);
    ASSERT_EQ(selected.size(), round.size());
    for (std::size_t i = 0; i < round.size(); ++i) EXPECT_EQ(selected[i].robot, round[i]);
  }
}

TEST(AsyncRandomScheduler, GoldenRobotSequence) {
  const Algorithm alg = algorithms::algorithm6();
  AsyncEngine engine(alg, alg.initial_configuration(Grid(2, 4)));
  AsyncRandomScheduler sched(5);
  const std::vector<int> effective{0, 1, 2, 3, 4};
  const int want[] = {1, 0, 4, 4, 1, 1, 4, 4, 2, 0};
  for (const int w : want) EXPECT_EQ(sched.pick_robot(engine, effective), w);
}

TEST(Schedulers, GoldenEndToEndRunStats) {
  // One pinned run per randomized scheduler family: identical numbers are
  // expected from any compiler/platform building this repo.
  using campaign::Cell;
  using campaign::SchedKind;
  const RunResult ssync = run_cell(Cell{"4.3.1", 4, 5, SchedKind::SsyncRandom}, 42, RunOptions{});
  EXPECT_TRUE(ssync.ok());
  EXPECT_EQ(ssync.stats.instants, 31);
  EXPECT_EQ(ssync.stats.moves, 30);
  EXPECT_EQ(ssync.stats.color_changes, 3);
  const RunResult async =
      run_cell(Cell{"4.3.1", 4, 5, SchedKind::AsyncRandom}, 42, RunOptions{});
  EXPECT_TRUE(async.ok());
  EXPECT_EQ(async.stats.instants, 93);
  EXPECT_EQ(async.stats.moves, 30);
}

TEST(AsyncSchedulers, RunnersProduceDeterministicResultsPerSeed) {
  const Algorithm alg = algorithms::algorithm6();
  const Grid grid(3, 4);
  RunOptions opts;
  AsyncRandomScheduler a(42), b(42);
  const RunResult ra = run_async(alg, grid, a, opts);
  const RunResult rb = run_async(alg, grid, b, opts);
  EXPECT_EQ(ra.stats.instants, rb.stats.instants);
  EXPECT_EQ(ra.stats.moves, rb.stats.moves);
  EXPECT_TRUE(ra.ok());
}

}  // namespace
}  // namespace lumi
