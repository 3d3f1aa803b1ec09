// Additional pinned configurations: even-m terminal configurations (the
// paper describes these as "similar to the odd case"; here they are spelled
// out and locked), Algorithm 9's eight-step turning sequence, and the
// documented Algorithm 11 terminals of this reproduction.
#include <gtest/gtest.h>

#include "src/algorithms/algorithms.hpp"
#include "src/engine/runner.hpp"

namespace lumi {
namespace {

using enum Color;
using Placements = std::vector<std::pair<Vec, std::vector<Color>>>;

Trace run_trace(const Algorithm& alg, int rows, int cols) {
  const Grid grid(rows, cols);
  RunOptions opts;
  opts.record_trace = true;
  RunResult result;
  if (alg.model == Synchrony::Fsync) {
    FsyncScheduler sched;
    opts.require_unique_actions = true;
    result = run_sync(alg, grid, sched, opts);
  } else {
    AsyncCentralizedScheduler sched;
    result = run_async(alg, grid, sched, opts);
  }
  EXPECT_TRUE(result.ok()) << alg.name << " on " << grid.to_string() << ": " << result.failure;
  return std::move(result.trace);
}

void expect_terminal(const Trace& trace, int rows, int cols, const Placements& placements,
                     const std::string& what) {
  ASSERT_FALSE(trace.empty());
  const Configuration expected = make_configuration(Grid(rows, cols), placements);
  EXPECT_TRUE(trace[trace.size() - 1].config.same_placement(expected))
      << what << ": terminal is " << trace[trace.size() - 1].config.to_string() << ", expected "
      << expected.to_string();
}

void expect_reaches(const Trace& trace, int rows, int cols, const Placements& placements,
                    const std::string& what) {
  const Configuration expected = make_configuration(Grid(rows, cols), placements);
  EXPECT_GE(trace.find_placement(expected), 0)
      << what << ": configuration " << expected.to_string() << " never reached";
}

TEST(PaperTracesMore, Alg2TerminalEvenM) {
  // Even m mirrors the odd case at the east wall: the trailing G fills the
  // southeast corner via R8's mirror image.
  const Trace t = run_trace(algorithms::algorithm2(), 4, 5);
  expect_terminal(t, 4, 5, {{{2, 3}, {G}}, {{3, 3}, {W}}, {{3, 4}, {G}}},
                  "Alg2 even-m terminal");
}

TEST(PaperTracesMore, Alg4TerminalEvenM) {
  // Even m: three robots merge in the southeast corner, {(v_{m-1,n-1},{W,W,B})}.
  const Trace t = run_trace(algorithms::algorithm4(), 4, 5);
  expect_terminal(t, 4, 5, {{{2, 4}, {G}}, {{3, 4}, {W, W, B}}}, "Alg4 even-m terminal");
}

TEST(PaperTracesMore, Alg7TerminalEvenM) {
  const Trace t = run_trace(algorithms::algorithm7(), 4, 5);
  expect_terminal(t, 4, 5, {{{2, 3}, {G}}, {{3, 3}, {B}}, {{3, 4}, {W}}},
                  "Alg7 even-m terminal");
}

TEST(PaperTracesMore, Alg9TurnWestFullSequence) {
  // Fig. 18 on 3x6 (turn from rows 0/1 to rows 1/2):
  // (d) G(0,4) G(1,3) W(1,4) W(1,5); (f) G(0,5) W(1,3) W(1,4) W(1,5);
  // (h) W(1,3) W(1,4) G(1,5) W(2,5)  — the mirror travel form.
  const Trace t = run_trace(algorithms::algorithm9(), 3, 6);
  expect_reaches(t, 3, 6, {{{0, 4}, {G}}, {{1, 3}, {G}}, {{1, 4}, {W}}, {{1, 5}, {W}}},
                 "Fig 18(d)");
  expect_reaches(t, 3, 6, {{{0, 5}, {G}}, {{1, 3}, {W}}, {{1, 4}, {W}}, {{1, 5}, {W}}},
                 "Fig 18(f)");
  expect_reaches(t, 3, 6, {{{1, 3}, {W}}, {{1, 4}, {W}}, {{1, 5}, {G}}, {{2, 5}, {W}}},
                 "Fig 18(h)");
}

TEST(PaperTracesMore, Alg9TerminalEvenM) {
  const Trace t = run_trace(algorithms::algorithm9(), 4, 6);
  expect_terminal(t, 4, 6,
                  {{{2, 3}, {G}}, {{2, 4}, {W}}, {{3, 4}, {W}}, {{3, 5}, {W}}},
                  "Alg9 even-m terminal");
}

TEST(PaperTracesMore, Alg11Terminals) {
  // This reproduction's Algorithm 11 terminals (documented deviation from
  // the paper's, see PAPER.md, "Reproduction gaps"): the wall stall freezes
  // the turn entry with a three-color stack in the final corner.
  const Trace even = run_trace(algorithms::algorithm11(), 4, 6);
  expect_terminal(even, 4, 6, {{{2, 5}, {W}}, {{3, 4}, {W, B}}, {{3, 5}, {G, W, B}}},
                  "Alg11 even-m terminal");
  const Trace odd = run_trace(algorithms::algorithm11(), 5, 6);
  expect_terminal(odd, 5, 6, {{{3, 0}, {W}}, {{4, 0}, {G, W, B}}, {{4, 1}, {W, B}}},
                  "Alg11 odd-m terminal");
}

TEST(PaperTracesMore, Alg6LargeGridFullSweep) {
  // The paper's smallest running example is 3x5; check a taller/wider grid
  // retains the exact paper terminals.
  const Trace t = run_trace(algorithms::algorithm6(), 5, 8);  // odd m
  expect_terminal(t, 5, 8, {{{4, 6}, {G}}, {{4, 7}, {W}}}, "Alg6 odd-m terminal 5x8");
}

TEST(PaperTracesMore, DerivedAlgorithmsShadowTheirBases) {
  // §4.2.3/§4.2.4/§4.2.8: the duplicated-color runs visit nodes in the same
  // instants as their base algorithms.
  struct Pair {
    Algorithm base;
    Algorithm derived;
  };
  const Pair pairs[] = {
      {algorithms::algorithm1(), algorithms::derived423()},
      {algorithms::algorithm2(), algorithms::derived424()},
      {algorithms::algorithm4(), algorithms::derived428()},
  };
  for (const Pair& p : pairs) {
    for (int rows = 2; rows <= 4; ++rows) {
      FsyncScheduler s1, s2;
      RunOptions opts;
      opts.require_unique_actions = true;
      const RunResult rb = run_sync(p.base, Grid(rows, 5), s1, opts);
      const RunResult rd = run_sync(p.derived, Grid(rows, 5), s2, opts);
      ASSERT_TRUE(rb.ok()) << p.base.name;
      ASSERT_TRUE(rd.ok()) << p.derived.name;
      EXPECT_EQ(rb.stats.instants, rd.stats.instants)
          << p.base.name << " vs " << p.derived.name << " on " << rows << "x5";
    }
  }
}

}  // namespace
}  // namespace lumi
