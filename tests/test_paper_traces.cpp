// Pins the exact configurations the paper states in prose: initial
// configurations, turn waypoints, and the odd/even-m terminal
// configurations of each algorithm.  These tests are the ground truth tying
// the reconstructed guards to the paper's executions.
#include <gtest/gtest.h>

#include "src/algorithms/algorithms.hpp"
#include "src/engine/runner.hpp"

namespace lumi {
namespace {

using enum Color;
using Placements = std::vector<std::pair<Vec, std::vector<Color>>>;

/// Runs to termination under the algorithm's natural scheduler and returns
/// the recorded trace.
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
  EXPECT_TRUE(result.ok()) << alg.name << " on " << grid.to_string() << ": " << result.failure
                           << " (visited " << result.visited_count() << "/" << grid.num_nodes()
                           << ")";
  return std::move(result.trace);
}

Configuration config_of(int rows, int cols, const Placements& placements) {
  return make_configuration(Grid(rows, cols), placements);
}

void expect_reaches(const Trace& trace, int rows, int cols, const Placements& placements,
                    const std::string& what) {
  const Configuration expected = config_of(rows, cols, placements);
  EXPECT_GE(trace.find_placement(expected), 0)
      << what << ": configuration " << expected.to_string() << " never reached";
}

void expect_terminal(const Trace& trace, int rows, int cols, const Placements& placements,
                     const std::string& what) {
  ASSERT_FALSE(trace.empty());
  const Configuration expected = config_of(rows, cols, placements);
  EXPECT_TRUE(trace[trace.size() - 1].config.same_placement(expected))
      << what << ": terminal is " << trace[trace.size() - 1].config.to_string() << ", expected "
      << expected.to_string();
}

// --- Algorithm 1 (§4.2.1) ---------------------------------------------------

TEST(PaperTraces, Alg1TurnWestWaypoints) {
  // Fig. 4 on a 3xn grid, n=5: (a) G(0,3) W(0,4); (b) G(1,3) W(0,4);
  // (c) G(1,2) W(1,4).
  const Trace t = run_trace(algorithms::algorithm1(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 3}, {G}}, {{0, 4}, {W}}}, "Fig 4(a)");
  expect_reaches(t, 3, 5, {{{1, 3}, {G}}, {{0, 4}, {W}}}, "Fig 4(b)");
  expect_reaches(t, 3, 5, {{{1, 2}, {G}}, {{1, 4}, {W}}}, "Fig 4(c)");
}

TEST(PaperTraces, Alg1TurnEastWaypoints) {
  // Fig. 5: (a) G(1,0) W(1,2); (b) G(2,0) W(1,1); (c) G(2,0) W(2,1).
  const Trace t = run_trace(algorithms::algorithm1(), 3, 5);
  expect_reaches(t, 3, 5, {{{1, 0}, {G}}, {{1, 2}, {W}}}, "Fig 5(a)");
  expect_reaches(t, 3, 5, {{{2, 0}, {G}}, {{1, 1}, {W}}}, "Fig 5(b)");
  expect_reaches(t, 3, 5, {{{2, 0}, {G}}, {{2, 1}, {W}}}, "Fig 5(c)");
}

TEST(PaperTraces, Alg1TerminalOddM) {
  // "Immediately after v_{m-1,n-1} is visited, the configuration is
  //  {(v_{m-1,n-2},{G}), (v_{m-1,n-1},{W})}" — odd m.
  const Trace t = run_trace(algorithms::algorithm1(), 3, 5);
  expect_terminal(t, 3, 5, {{{2, 3}, {G}}, {{2, 4}, {W}}}, "Alg1 odd-m terminal");
}

TEST(PaperTraces, Alg1TerminalEvenM) {
  // Even m: "... the configuration becomes {(v_{m-1,1},{G,W})}".
  const Trace t = run_trace(algorithms::algorithm1(), 4, 5);
  expect_reaches(t, 4, 5, {{{3, 0}, {G}}, {{3, 2}, {W}}}, "Alg1 even-m pre-merge");
  expect_terminal(t, 4, 5, {{{3, 1}, {G, W}}}, "Alg1 even-m terminal");
}

// --- Algorithm 2 (§4.2.2) ---------------------------------------------------

TEST(PaperTraces, Alg2TurnWestWaypoints) {
  // Fig. 6 with n=5: (a) G(0,3) G(0,4) W(1,3); (b) G(0,4) G(1,3) W(2,3);
  // (c) G(1,3) G(1,4) W(2,4).
  const Trace t = run_trace(algorithms::algorithm2(), 4, 5);
  expect_reaches(t, 4, 5, {{{0, 3}, {G}}, {{0, 4}, {G}}, {{1, 3}, {W}}}, "Fig 6(a)");
  expect_reaches(t, 4, 5, {{{0, 4}, {G}}, {{1, 3}, {G}}, {{2, 3}, {W}}}, "Fig 6(b)");
  expect_reaches(t, 4, 5, {{{1, 3}, {G}}, {{1, 4}, {G}}, {{2, 4}, {W}}}, "Fig 6(c)");
}

TEST(PaperTraces, Alg2TerminalOddM) {
  // Odd m: "... {(v_{m-1,0},{G}), (v_{m-2,1},{G}), (v_{m-1,1},{W})}".
  const Trace t = run_trace(algorithms::algorithm2(), 3, 5);
  expect_reaches(t, 3, 5, {{{1, 0}, {G}}, {{1, 1}, {G}}, {{2, 1}, {W}}}, "Alg2 odd-m pre-end");
  expect_terminal(t, 3, 5, {{{2, 0}, {G}}, {{1, 1}, {G}}, {{2, 1}, {W}}}, "Alg2 odd-m terminal");
}

// --- Algorithm 3 (§4.2.5) ---------------------------------------------------

TEST(PaperTraces, Alg3TurnWestWaypoints) {
  // Fig. 7 with n=5: (a) G(0,3) W(0,4); (b) G(0,4) G(1,4); (c) B(1,3) G(1,4).
  const Trace t = run_trace(algorithms::algorithm3(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 3}, {G}}, {{0, 4}, {W}}}, "Fig 7(a)");
  expect_reaches(t, 3, 5, {{{0, 4}, {G}}, {{1, 4}, {G}}}, "Fig 7(b)");
  expect_reaches(t, 3, 5, {{{1, 3}, {B}}, {{1, 4}, {G}}}, "Fig 7(c)");
}

TEST(PaperTraces, Alg3TurnEastWaypoints) {
  // Fig. 8: (a) B(1,0) G(1,1); (b) G(1,0) B(2,0); (c) G(2,0) W(2,1).
  const Trace t = run_trace(algorithms::algorithm3(), 3, 5);
  expect_reaches(t, 3, 5, {{{1, 0}, {B}}, {{1, 1}, {G}}}, "Fig 8(a)");
  expect_reaches(t, 3, 5, {{{1, 0}, {G}}, {{2, 0}, {B}}}, "Fig 8(b)");
  expect_reaches(t, 3, 5, {{{2, 0}, {G}}, {{2, 1}, {W}}}, "Fig 8(c)");
}

TEST(PaperTraces, Alg3Terminals) {
  // Odd m: {(v_{m-1,n-1},{G,W})}; even m: {(v_{m-1,0},{G,B})}.
  const Trace odd = run_trace(algorithms::algorithm3(), 3, 5);
  expect_terminal(odd, 3, 5, {{{2, 4}, {G, W}}}, "Alg3 odd-m terminal");
  const Trace even = run_trace(algorithms::algorithm3(), 4, 5);
  expect_reaches(even, 4, 5, {{{3, 0}, {B}}, {{3, 1}, {G}}}, "Alg3 even-m pre-merge");
  expect_terminal(even, 4, 5, {{{3, 0}, {G, B}}}, "Alg3 even-m terminal");
}

// --- Algorithm 4 (§4.2.6) ---------------------------------------------------

TEST(PaperTraces, Alg4TurnWestWaypoints) {
  // Fig. 9 with n=5: (a) G(0,3) W(0,4) B(1,3) W(1,4);
  // (b) G(0,4) {W,B}(1,4) W(2,4); (c) W(1,3) G(1,4) W(2,3) B(2,4).
  const Trace t = run_trace(algorithms::algorithm4(), 4, 5);
  expect_reaches(t, 4, 5, {{{0, 3}, {G}}, {{0, 4}, {W}}, {{1, 3}, {B}}, {{1, 4}, {W}}},
                 "Fig 9(a)");
  expect_reaches(t, 4, 5, {{{0, 4}, {G}}, {{1, 4}, {W, B}}, {{2, 4}, {W}}}, "Fig 9(b)");
  expect_reaches(t, 4, 5, {{{1, 3}, {W}}, {{1, 4}, {G}}, {{2, 3}, {W}}, {{2, 4}, {B}}},
                 "Fig 9(c)");
}

TEST(PaperTraces, Alg4TerminalOddM) {
  // Odd m: "... {(v_{m-2,0},{G}), (v_{m-1,0},{W,W,B})}".
  const Trace t = run_trace(algorithms::algorithm4(), 3, 5);
  expect_reaches(
      t, 3, 5, {{{1, 0}, {W}}, {{1, 1}, {G}}, {{2, 0}, {W}}, {{2, 1}, {B}}},
      "Alg4 odd-m pre-end");
  expect_terminal(t, 3, 5, {{{1, 0}, {G}}, {{2, 0}, {W, W, B}}}, "Alg4 odd-m terminal");
}

// --- Algorithm 5 (§4.2.7) ---------------------------------------------------

TEST(PaperTraces, Alg5TurnWestWaypoints) {
  // Fig. 10 with n=5: (a) G(0,3) G(0,4) W(1,3); (b) G(0,4) {G,W}(1,4);
  // (c) W(1,3) W(1,4) G(2,4).
  const Trace t = run_trace(algorithms::algorithm5(), 4, 5);
  expect_reaches(t, 4, 5, {{{0, 3}, {G}}, {{0, 4}, {G}}, {{1, 3}, {W}}}, "Fig 10(a)");
  expect_reaches(t, 4, 5, {{{0, 4}, {G}}, {{1, 4}, {G, W}}}, "Fig 10(b)");
  expect_reaches(t, 4, 5, {{{1, 3}, {W}}, {{1, 4}, {W}}, {{2, 4}, {G}}}, "Fig 10(c)");
}

TEST(PaperTraces, Alg5TurnEastWaypoints) {
  // Fig. 11: (a) W(1,0) W(1,1) G(2,1); (b) W(1,0) {G,W}(2,0);
  // (c) G(2,0) G(2,1) W(3,0).
  const Trace t = run_trace(algorithms::algorithm5(), 4, 5);
  expect_reaches(t, 4, 5, {{{1, 0}, {W}}, {{1, 1}, {W}}, {{2, 1}, {G}}}, "Fig 11(a)");
  expect_reaches(t, 4, 5, {{{1, 0}, {W}}, {{2, 0}, {G, W}}}, "Fig 11(b)");
  expect_reaches(t, 4, 5, {{{2, 0}, {G}}, {{2, 1}, {G}}, {{3, 0}, {W}}}, "Fig 11(c)");
}

TEST(PaperTraces, Alg5Terminals) {
  // Odd m: {(v_{m-1,0},{G,G,W})}; even m: {(v_{m-1,n-1},{G,W,W})}.
  const Trace odd = run_trace(algorithms::algorithm5(), 3, 5);
  expect_reaches(odd, 3, 5, {{{1, 0}, {W}}, {{2, 0}, {G, W}}}, "Alg5 odd-m pre-end");
  expect_terminal(odd, 3, 5, {{{2, 0}, {G, G, W}}}, "Alg5 odd-m terminal");
  const Trace even = run_trace(algorithms::algorithm5(), 4, 5);
  expect_reaches(even, 4, 5, {{{2, 4}, {G}}, {{3, 4}, {G, W}}}, "Alg5 even-m pre-end");
  expect_terminal(even, 4, 5, {{{3, 4}, {G, W, W}}}, "Alg5 even-m terminal");
}

// --- Algorithm 6 (§4.3.1) ---------------------------------------------------

TEST(PaperTraces, Alg6ProceedEastStretchCompact) {
  // "W moves east by R1 -> {(v00,{G}),(v02,{W})}; G moves east by R2 ->
  //  {(v01,{G}),(v02,{W})}".
  const Trace t = run_trace(algorithms::algorithm6(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 0}, {G}}, {{0, 2}, {W}}}, "Alg6 stretched");
  expect_reaches(t, 3, 5, {{{0, 1}, {G}}, {{0, 2}, {W}}}, "Alg6 compact");
}

TEST(PaperTraces, Alg6TurnWaypoints) {
  // Fig. 12 with n=5: (b) G(0,3) W(1,4); (d) B(1,3) W(1,4).
  // Fig. 13: (b) B(2,0) W(1,1); (c) G(2,0) W(1,1); (d) G(2,0) W(2,1).
  const Trace t = run_trace(algorithms::algorithm6(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 3}, {G}}, {{1, 4}, {W}}}, "Fig 12(b)");
  expect_reaches(t, 3, 5, {{{1, 3}, {B}}, {{1, 4}, {W}}}, "Fig 12(d)");
  expect_reaches(t, 3, 5, {{{2, 0}, {B}}, {{1, 1}, {W}}}, "Fig 13(b)");
  expect_reaches(t, 3, 5, {{{2, 0}, {G}}, {{1, 1}, {W}}}, "Fig 13(c)");
  expect_reaches(t, 3, 5, {{{2, 0}, {G}}, {{2, 1}, {W}}}, "Fig 13(d)");
}

TEST(PaperTraces, Alg6Terminals) {
  // Odd m: {(v_{m-1,n-2},{G}), (v_{m-1,n-1},{W})}; even m:
  // {(v_{m-1,0},{B}), (v_{m-1,1},{W})}.
  const Trace odd = run_trace(algorithms::algorithm6(), 3, 5);
  expect_terminal(odd, 3, 5, {{{2, 3}, {G}}, {{2, 4}, {W}}}, "Alg6 odd-m terminal");
  const Trace even = run_trace(algorithms::algorithm6(), 4, 5);
  expect_terminal(even, 4, 5, {{{3, 0}, {B}}, {{3, 1}, {W}}}, "Alg6 even-m terminal");
}

// --- Algorithm 7 (§4.3.2) ---------------------------------------------------

TEST(PaperTraces, Alg7ProceedEastRotation) {
  // R1 -> {G(0,0), W(0,1), B(1,1)}; R2 -> {G(0,0), W(0,2), B(1,1)};
  // R3 -> {G(0,1), W(0,2), B(1,1)}.
  const Trace t = run_trace(algorithms::algorithm7(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 0}, {G}}, {{0, 1}, {W}}, {{1, 1}, {B}}}, "Alg7 after R1");
  expect_reaches(t, 3, 5, {{{0, 0}, {G}}, {{0, 2}, {W}}, {{1, 1}, {B}}}, "Alg7 after R2");
  expect_reaches(t, 3, 5, {{{0, 1}, {G}}, {{0, 2}, {W}}, {{1, 1}, {B}}}, "Alg7 after R3");
}

TEST(PaperTraces, Alg7TurnWestWaypoints) {
  // Fig. 14 with n=5 (turn from rows 0/1 to rows 1/2):
  // (d) W(1,3) W(0,4) B(2,3); (e) W(1,3) W(0,4) B(2,4);
  // (g) W(1,3) G(1,4) B(2,4).
  const Trace t = run_trace(algorithms::algorithm7(), 3, 5);
  expect_reaches(t, 3, 5, {{{1, 3}, {W}}, {{0, 4}, {W}}, {{2, 3}, {B}}}, "Fig 14(d)");
  expect_reaches(t, 3, 5, {{{1, 3}, {W}}, {{0, 4}, {W}}, {{2, 4}, {B}}}, "Fig 14(e)");
  expect_reaches(t, 3, 5, {{{1, 3}, {W}}, {{1, 4}, {G}}, {{2, 4}, {B}}}, "Fig 14(g)");
}

TEST(PaperTraces, Alg7TerminalOddM) {
  // Odd m: {(v_{m-2,1},{G}), (v_{m-1,0},{W}), (v_{m-1,1},{B})}.
  const Trace t = run_trace(algorithms::algorithm7(), 3, 5);
  expect_reaches(t, 3, 5, {{{1, 0}, {W}}, {{1, 1}, {G}}, {{2, 1}, {B}}}, "Alg7 odd-m pre-end");
  expect_terminal(t, 3, 5, {{{1, 1}, {G}}, {{2, 0}, {W}}, {{2, 1}, {B}}},
                  "Alg7 odd-m terminal");
}

// --- Algorithm 8 (§4.3.3) ---------------------------------------------------

TEST(PaperTraces, Alg8ProceedEast) {
  // {G(0,0),W(0,2),G(1,0)} -> {G(0,1),W(0,2),G(1,0)} -> {G(0,1),W(0,2),G(1,1)}.
  const Trace t = run_trace(algorithms::algorithm8(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 0}, {G}}, {{0, 2}, {W}}, {{1, 0}, {G}}}, "Alg8 W stepped");
  expect_reaches(t, 3, 5, {{{0, 1}, {G}}, {{0, 2}, {W}}, {{1, 0}, {G}}}, "Alg8 north G stepped");
  expect_reaches(t, 3, 5, {{{0, 1}, {G}}, {{0, 2}, {W}}, {{1, 1}, {G}}}, "Alg8 south G stepped");
}

TEST(PaperTraces, Alg8TurnWestWaypoints) {
  // Fig. 15 with n=5: (b) G(0,3) G(1,3) W(1,4); (c) G(0,3) W(1,3) W(1,4);
  // (d) G(0,4) W(1,3) W(1,4); (f) W(1,3) G(1,4) W(2,4).
  const Trace t = run_trace(algorithms::algorithm8(), 4, 5);
  expect_reaches(t, 4, 5, {{{0, 3}, {G}}, {{1, 3}, {G}}, {{1, 4}, {W}}}, "Fig 15(b)");
  expect_reaches(t, 4, 5, {{{0, 3}, {G}}, {{1, 3}, {W}}, {{1, 4}, {W}}}, "Fig 15(c)");
  expect_reaches(t, 4, 5, {{{0, 4}, {G}}, {{1, 3}, {W}}, {{1, 4}, {W}}}, "Fig 15(d)");
  expect_reaches(t, 4, 5, {{{1, 3}, {W}}, {{1, 4}, {G}}, {{2, 4}, {W}}}, "Fig 15(f)");
}

TEST(PaperTraces, Alg8Terminals) {
  // Odd m: {(v_{m-2,1},{G}), (v_{m-1,0},{W}), (v_{m-1,1},{W})};
  // even m: {(v_{m-2,n-2},{G}), (v_{m-1,n-2},{G}), (v_{m-1,n-1},{W})}.
  const Trace odd = run_trace(algorithms::algorithm8(), 3, 5);
  expect_terminal(odd, 3, 5, {{{1, 1}, {G}}, {{2, 0}, {W}}, {{2, 1}, {W}}},
                  "Alg8 odd-m terminal");
  const Trace even = run_trace(algorithms::algorithm8(), 4, 5);
  expect_terminal(even, 4, 5, {{{2, 3}, {G}}, {{3, 3}, {G}}, {{3, 4}, {W}}},
                  "Alg8 even-m terminal");
}

// --- Algorithm 9 (§4.3.4) ---------------------------------------------------

TEST(PaperTraces, Alg9ProceedEast) {
  // Fig. 17: (a) -> (b) south W steps; (b) -> (c) east W steps; (c) -> (d)
  // middle W steps; then G.
  const Trace t = run_trace(algorithms::algorithm9(), 3, 6);
  expect_reaches(t, 3, 6, {{{0, 0}, {G}}, {{0, 1}, {W}}, {{0, 2}, {W}}, {{1, 1}, {W}}},
                 "Fig 17(b)");
  expect_reaches(t, 3, 6, {{{0, 0}, {G}}, {{0, 1}, {W}}, {{0, 3}, {W}}, {{1, 1}, {W}}},
                 "Fig 17(c)");
  expect_reaches(t, 3, 6, {{{0, 0}, {G}}, {{0, 2}, {W}}, {{0, 3}, {W}}, {{1, 1}, {W}}},
                 "Fig 17(d)");
}

TEST(PaperTraces, Alg9TerminalOddM) {
  // Odd m: {(v_{m-2,1},{W}), (v_{m-2,2},{G}), (v_{m-1,0},{W}), (v_{m-1,1},{W})}.
  const Trace t = run_trace(algorithms::algorithm9(), 3, 6);
  expect_reaches(
      t, 3, 6,
      {{{1, 0}, {W}}, {{1, 1}, {W}}, {{1, 2}, {G}}, {{2, 1}, {W}}},
      "Alg9 odd-m pre-end");
  expect_terminal(
      t, 3, 6,
      {{{1, 1}, {W}}, {{1, 2}, {G}}, {{2, 0}, {W}}, {{2, 1}, {W}}},
      "Alg9 odd-m terminal");
}

// --- Algorithm 10 (§4.3.5) --------------------------------------------------

TEST(PaperTraces, Alg10ProceedEastLeapfrog) {
  // Fig. 19: (b) {G,W}(0,1) W(0,2); (d) G(0,1) {G,W}(0,2); (f) G(0,1) W(0,2)
  // W(0,3).
  const Trace t = run_trace(algorithms::algorithm10(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 1}, {G, W}}, {{0, 2}, {W}}}, "Fig 19(b)");
  expect_reaches(t, 3, 5, {{{0, 1}, {G}}, {{0, 2}, {G, W}}}, "Fig 19(d)");
  expect_reaches(t, 3, 5, {{{0, 1}, {G}}, {{0, 2}, {W}}, {{0, 3}, {W}}}, "Fig 19(f)");
}

TEST(PaperTraces, Alg10TurnWestWaypoints) {
  // Fig. 20 with n=5: (a) G(0,3) {G,W}(0,4); (d) {G,W}(0,4) B(1,4);
  // (e) W(0,4) {G,B}(1,4); (g) W(0,4) B(1,3) B(1,4); (h) B(1,3) {W,B}(1,4).
  const Trace t = run_trace(algorithms::algorithm10(), 3, 5);
  expect_reaches(t, 3, 5, {{{0, 3}, {G}}, {{0, 4}, {G, W}}}, "Fig 20(a)");
  expect_reaches(t, 3, 5, {{{0, 4}, {G, W}}, {{1, 4}, {B}}}, "Fig 20(d)");
  expect_reaches(t, 3, 5, {{{0, 4}, {W}}, {{1, 4}, {G, B}}}, "Fig 20(e)");
  expect_reaches(t, 3, 5, {{{0, 4}, {W}}, {{1, 3}, {B}}, {{1, 4}, {B}}}, "Fig 20(g)");
  expect_reaches(t, 3, 5, {{{1, 3}, {B}}, {{1, 4}, {W, B}}}, "Fig 20(h)");
}

TEST(PaperTraces, Alg10TurnEastWaypoints) {
  // Fig. 21 with rows 1->2: (a) {W,B}(1,0) W(1,1); (c) B(1,0) W(1,1) G(2,0);
  // (f) B(1,0) {G,B}(2,0); (h) B(1,0) G(2,0) G(2,1); (j) G(2,0) {G,B}(2,1);
  // (k) G(2,0) {G,W}(2,1).
  const Trace t = run_trace(algorithms::algorithm10(), 4, 5);
  expect_reaches(t, 4, 5, {{{1, 0}, {W, B}}, {{1, 1}, {W}}}, "Fig 21(a)");
  expect_reaches(t, 4, 5, {{{1, 0}, {B}}, {{1, 1}, {W}}, {{2, 0}, {G}}}, "Fig 21(c)");
  expect_reaches(t, 4, 5, {{{1, 0}, {B}}, {{2, 0}, {G, B}}}, "Fig 21(f)");
  expect_reaches(t, 4, 5, {{{1, 0}, {B}}, {{2, 0}, {G}}, {{2, 1}, {G}}}, "Fig 21(h)");
  expect_reaches(t, 4, 5, {{{2, 0}, {G}}, {{2, 1}, {G, B}}}, "Fig 21(j)");
  expect_reaches(t, 4, 5, {{{2, 0}, {G}}, {{2, 1}, {G, W}}}, "Fig 21(k)");
}

TEST(PaperTraces, Alg10Terminals) {
  // Odd m: {(v_{m-1,n-2},{G}), (v_{m-1,n-1},{G,W})}; even m:
  // {(v_{m-1,0},{W,B}), (v_{m-1,1},{W})}.
  const Trace odd = run_trace(algorithms::algorithm10(), 3, 5);
  expect_terminal(odd, 3, 5, {{{2, 3}, {G}}, {{2, 4}, {G, W}}}, "Alg10 odd-m terminal");
  const Trace even = run_trace(algorithms::algorithm10(), 4, 5);
  expect_terminal(even, 4, 5, {{{3, 0}, {W, B}}, {{3, 1}, {W}}}, "Alg10 even-m terminal");
}

// --- Algorithm 11 (§4.3.6) --------------------------------------------------

TEST(PaperTraces, Alg11ProceedEastWaypoints) {
  // Fig. 22 (paper-faithful proceeding): (b) {G,W}(0,1) W(0,2) {W,B}(1,0)
  // W(1,1); (d) {G,W}(0,1) W(0,2) B(1,0) {W,B}(1,1); (h) G(0,1) {G,W}(0,2)
  // B(1,0) W(1,1) W(1,2); (m) = (a) shifted east by one.
  const Trace t = run_trace(algorithms::algorithm11(), 4, 6);
  expect_reaches(t, 4, 6, {{{0, 1}, {G, W}}, {{0, 2}, {W}}, {{1, 0}, {W, B}}, {{1, 1}, {W}}},
                 "Fig 22(b)");
  expect_reaches(t, 4, 6, {{{0, 1}, {G, W}}, {{0, 2}, {W}}, {{1, 0}, {B}}, {{1, 1}, {W, B}}},
                 "Fig 22(d)");
  expect_reaches(
      t, 4, 6,
      {{{0, 1}, {G}}, {{0, 2}, {G, W}}, {{1, 0}, {B}}, {{1, 1}, {W}}, {{1, 2}, {W}}},
      "Fig 22(h)");
  expect_reaches(
      t, 4, 6,
      {{{0, 1}, {G}}, {{0, 2}, {W}}, {{0, 3}, {W}}, {{1, 1}, {W, B}}, {{1, 2}, {W}}},
      "Fig 23(m)");
}

TEST(PaperTraces, Alg11TurnProducesMirrorCrawl) {
  // Our turn design (PAPER.md, "Reproduction gaps"): after the east-wall
  // turn the robots re-enter the crawl's (a)-phase one row down, mirrored:
  // W(1,n-3), W(1,n-2), G(1,n-1), W(2,n-2), {W,B}(2,n-1).
  const Trace t = run_trace(algorithms::algorithm11(), 4, 6);
  expect_reaches(t, 4, 6,
                 {{{1, 3}, {W}}, {{1, 4}, {W}}, {{1, 5}, {G}}, {{2, 4}, {W}}, {{2, 5}, {W, B}}},
                 "Alg11 post-turn mirror (a)-phase");
}

}  // namespace
}  // namespace lumi
