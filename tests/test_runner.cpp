#include "src/engine/runner.hpp"

#include <gtest/gtest.h>

#include "src/algorithms/registry.hpp"
#include "src/algorithms/algorithms.hpp"

namespace lumi {
namespace {

using enum Color;

TEST(Runner, BudgetExhaustionReported) {
  // A two-robot ping-pong never terminates; the runner must stop at the
  // budget and say so rather than spin.
  Algorithm pingpong;
  pingpong.name = "pingpong";
  pingpong.model = Synchrony::Fsync;
  pingpong.phi = 1;
  pingpong.num_colors = 2;
  pingpong.chirality = Chirality::Common;
  pingpong.min_rows = 2;
  pingpong.min_cols = 3;
  pingpong.initial_robots = {{{0, 0}, G}, {{0, 1}, W}};
  pingpong.rules.push_back(RuleBuilder("R1", G).cell("E", {W}).moves(Dir::East).build());
  pingpong.rules.push_back(RuleBuilder("R2", W).cell("W", {G}).moves(Dir::West).build());
  pingpong.validate();

  FsyncScheduler sched;
  RunOptions opts;
  opts.max_steps = 50;
  const RunResult r = run_sync(pingpong, Grid(2, 3), sched, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.terminated);
  EXPECT_NE(r.failure.find("budget"), std::string::npos);
  EXPECT_EQ(r.stats.instants, 50);
}

TEST(Runner, AsyncBudgetExhaustionReported) {
  Algorithm pingpong;
  pingpong.name = "pingpong";
  pingpong.model = Synchrony::Async;
  pingpong.phi = 1;
  pingpong.num_colors = 2;
  pingpong.chirality = Chirality::Common;
  pingpong.min_rows = 2;
  pingpong.min_cols = 3;
  pingpong.initial_robots = {{{0, 0}, G}, {{0, 1}, W}};
  pingpong.rules.push_back(RuleBuilder("R1", G).cell("E", {W}).moves(Dir::East).build());
  pingpong.rules.push_back(RuleBuilder("R2", W).cell("W", {G}).moves(Dir::West).build());
  pingpong.validate();

  AsyncRandomScheduler sched(3);
  RunOptions opts;
  opts.max_steps = 100;
  const RunResult r = run_async(pingpong, Grid(2, 3), sched, opts);
  // Under ASYNC the swap may also collapse both robots onto one node (stale
  // decisions), which terminates without coverage; either way not ok().
  EXPECT_FALSE(r.ok());
  if (!r.terminated) {
    EXPECT_NE(r.failure.find("budget"), std::string::npos);
  } else {
    EXPECT_FALSE(r.explored_all);
  }
}

TEST(Runner, TraceRecordsInitialAndEveryInstant) {
  const Algorithm alg = algorithms::algorithm1();
  FsyncScheduler sched;
  RunOptions opts;
  opts.record_trace = true;
  const RunResult r = run_sync(alg, Grid(2, 4), sched, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<long>(r.trace.size()), r.stats.instants + 1);
  EXPECT_EQ(r.trace[0].note, "initial");
  EXPECT_TRUE(
      r.trace[0].config.same_placement(alg.initial_configuration(Grid(2, 4))));
}

TEST(Runner, StatsCountMovesAndColorChanges) {
  // Algorithm 3 recolors twice per full turn pair (W->G->B and B->W).
  const Algorithm alg = algorithms::algorithm3();
  FsyncScheduler sched;
  const RunResult r = run_sync(alg, Grid(3, 4), sched);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.stats.color_changes, 0);
  EXPECT_GT(r.stats.moves, 0);
  EXPECT_GE(r.stats.activations, r.stats.moves);
}

TEST(Runner, VisitedVectorMatchesCoverage) {
  const Algorithm alg = algorithms::algorithm1();
  FsyncScheduler sched;
  const Grid grid(3, 5);
  const RunResult r = run_sync(alg, grid, sched);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.visited_count(), grid.num_nodes());
  EXPECT_EQ(static_cast<int>(r.visited.size()), grid.num_nodes());
}

TEST(Runner, UniqueActionCheckRejectsSymmetricChoices) {
  // Symmetric initial view: the single robot can move in four directions.
  Algorithm wander;
  wander.name = "wander";
  wander.model = Synchrony::Fsync;
  wander.phi = 1;
  wander.num_colors = 1;
  wander.chirality = Chirality::Common;
  wander.min_rows = 3;
  wander.min_cols = 3;
  wander.initial_robots = {{{1, 1}, G}};
  wander.rules.push_back(
      RuleBuilder("R1", G).cell("E", CellPattern::empty()).moves(Dir::East).build());
  wander.validate();

  FsyncScheduler sched;
  RunOptions opts;
  opts.require_unique_actions = true;
  const RunResult r = run_sync(wander, Grid(3, 3), sched, opts);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.failure.find("multiple distinct enabled behaviors"), std::string::npos)
      << r.failure;
}

TEST(Runner, TerminationWithoutFullCoverageIsNotOk) {
  // A rule set that walks one robot east and stops: terminates without
  // exploring, and without any failure string to explain it.
  Algorithm lazy;
  lazy.name = "lazy";
  lazy.model = Synchrony::Fsync;
  lazy.phi = 1;
  lazy.num_colors = 1;
  lazy.chirality = Chirality::Common;
  lazy.min_rows = 2;
  lazy.min_cols = 3;
  lazy.initial_robots = {{{0, 0}, G}, {{0, 1}, G}};
  lazy.rules.push_back(RuleBuilder("R1", G)
                           .cell("W", {G})
                           .cell("E", CellPattern::empty())
                           .moves(Dir::East)
                           .build());
  lazy.validate();

  FsyncScheduler sched;
  RunOptions opts;
  opts.require_unique_actions = true;
  const Grid grid(3, 4);
  const RunResult r = run_sync(lazy, grid, sched, opts);
  EXPECT_TRUE(r.terminated);
  EXPECT_TRUE(r.failure.empty()) << r.failure;
  EXPECT_FALSE(r.explored_all);
  EXPECT_LT(r.visited_count(), grid.reachable_nodes());
  EXPECT_FALSE(r.ok());
}

TEST(Runner, GridBelowAlgorithmMinimumThrows) {
  const Algorithm alg = algorithms::algorithm11();  // needs m >= 3
  SsyncRoundRobinScheduler sched;
  EXPECT_THROW(run_sync(alg, Grid(2, 3), sched), std::invalid_argument);
}

TEST(Runner, SsyncRoundRobinCompletesEveryAsyncAlgorithm) {
  // The most sequential fair scheduler must work for all SSYNC/ASYNC rows.
  for (const char* section : {"4.3.1", "4.3.2", "4.3.3", "4.3.4", "4.3.5", "4.3.6"}) {
    const Algorithm alg = algorithms::entry(section).make();
    SsyncRoundRobinScheduler sched;
    const Grid grid(std::max(3, alg.min_rows), 5);
    const RunResult r = run_sync(alg, grid, sched);
    EXPECT_TRUE(r.ok()) << section << ": " << r.failure;
  }
}

}  // namespace
}  // namespace lumi
