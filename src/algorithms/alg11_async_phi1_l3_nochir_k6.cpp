// Algorithm 11 (paper §4.3.6): phi=1, colors {G,W,B}, no chirality, k=6.
// Requires m >= 3.
//
// CAPABILITY NOTE: the paper claims ASYNC; this reconstruction is verified
// for FSYNC and (exhaustively, on small grids) for every SSYNC schedule.
// The paper's ASYNC-tolerant turning diagrams (Figs. 24-25) are not
// recoverable from text, and our redesigned turn — while SSYNC-proof —
// admits stale-snapshot ASYNC interleavings that break it (several phi=1
// views at the turning junction are provably symmetric).  The model checker's
// counterexample on 3x3 is quoted in PAPER.md, "Reproduction gaps".
// Table 1's k=6 upper bound is therefore demonstrated here under SSYNC.
//
// Two coupled three-robot "trains" crawl east in lockstep (paper Figs.
// 22-23, rules R1-R6 below are faithful to the prose): the top train is
// Algorithm 10's (G,W,W) leapfrog; the bottom train is a (W+B,W) pair whose
// B member shuttles between stacks.  Cross-row guard cells force the strict
// R1->R2->R3->R4 order; R5 and R6 may run concurrently (all interleavings
// converge, as the paper argues for Fig. 23).
//
// The turning phase entry R7 follows the paper (the leading stack's G turns
// B and drops; it runs concurrently with a pending R6).  The remaining
// turning rules R8-R14 are this reproduction's own design — the paper's
// turning diagrams (Figs. 24-25) are not recoverable from text — satisfying
// the same contract: east-facing form at the wall in, mirror-image
// west-facing form one row down out (entering the crawl at its (b)-phase).
// Consequences (PAPER.md, "Reproduction gaps"): identical robot count,
// colors, phi, route and termination; terminal configurations differ from
// the paper's by one trailing color.
#include "src/algorithms/algorithms.hpp"

namespace lumi::algorithms {

Algorithm algorithm11() {
  using enum Color;
  const CellPattern empty = CellPattern::empty();
  const CellPattern wall = CellPattern::wall();

  Algorithm alg;
  alg.name = "alg11-async-phi1-l3-nochir-k6";
  alg.paper_section = "4.3.6";
  alg.model = Synchrony::Ssync;
  alg.phi = 1;
  alg.num_colors = 3;
  alg.chirality = Chirality::None;
  alg.min_rows = 3;
  alg.min_cols = 3;
  alg.initial_robots = {{{0, 0}, G}, {{0, 1}, W}, {{0, 2}, W},
                        {{1, 0}, W}, {{1, 0}, B}, {{1, 1}, W}};

  // Proceed east (paper Figs. 22-23).
  alg.rules.push_back(
      RuleBuilder("R1", G).cell("E", {W}).cell("S", {W, B}).moves(Dir::East).build());
  alg.rules.push_back(RuleBuilder("R2", W)
                          .center({W, B})
                          .cell("N", empty)
                          .cell("E", {W})
                          .becomes(B)
                          .moves(Dir::East)
                          .build());
  alg.rules.push_back(RuleBuilder("R3", W)
                          .center({G, W})
                          .cell("E", {W})
                          .cell("S", {W, B})
                          .cell("W", empty)
                          .becomes(G)
                          .moves(Dir::East)
                          .build());
  alg.rules.push_back(RuleBuilder("R4", B)
                          .center({W, B})
                          .cell("N", {G})
                          .cell("W", {B})
                          .cell("E", empty)
                          .becomes(W)
                          .moves(Dir::East)
                          .build());
  alg.rules.push_back(RuleBuilder("R5", G)
                          .center({G, W})
                          .cell("W", {G})
                          .cell("S", {W})
                          .cell("E", empty)
                          .becomes(W)
                          .moves(Dir::East)
                          .build());
  alg.rules.push_back(
      RuleBuilder("R6", B).cell("N", empty).cell("E", {W}).moves(Dir::East).build());
  // Turning phase.  R7 keeps the paper's entry action; the rest is this
  // reproduction's own design (the paper's turning diagrams are not
  // recoverable from text; PAPER.md, "Reproduction gaps").  Phi=1 robots
  // cannot exclude the rear G's crawl rule R1 at the wall, so the turn
  // embraces it:
  //   X:  [G, {G,W} | {W,B}, W]   (wall-stall; R6 may still be pending)
  //   R7: the stack's G drops onto the wall-side W (no recolor en route);
  //   R1: the rear G folds into the wall stack; R7c recolors the dropped
  //       G to B once that happened ({G,W} east of {G,W} never occurs
  //       mid-crawl, making the guard rotation-proof);
  //   R8/R9: the wall stack's W and B sink one row;
  //   R8: the corner stack's G drops straight onto the wall stack, making
  //        a three-color {G,W,B} stack (all members distinguishable); R9
  //        sheds its B one row down and R10 sinks the W after it —
  //        leaving the single G "pivot" at the wall;
  //   R13/R11: the bottom stacks shed their Ws westward (the G east resp.
  //        north is the trigger) and R12 recolors the stranded B to W —
  //        the G/B color contrast is what breaks every anti-transpose
  //        ambiguity at the junction;
  //   R15/R16: the corner W finally threads down through the G onto the
  //        remaining B, re-entering the mirrored crawl at its (a)-phase.
  alg.rules.push_back(RuleBuilder("R7", G)
                          .center({G, W})
                          .cell("W", {G})
                          .cell("E", wall)
                          .cell("S", {W})
                          .becomes(B)
                          .moves(Dir::South)
                          .build());
  alg.rules.push_back(RuleBuilder("R8", G)
                          .center({G, W})
                          .cell("W", empty)
                          .cell("S", {W, B})
                          .cell("E", wall)
                          .moves(Dir::South)
                          .build());
  alg.rules.push_back(RuleBuilder("R9", B)
                          .center({G, W, B})
                          .cell("N", {W})
                          .cell("W", {W, B})
                          .cell("S", empty)
                          .cell("E", wall)
                          .moves(Dir::South)
                          .build());
  alg.rules.push_back(RuleBuilder("R10a", G)
                          .center({G, W})
                          .cell("N", {W})
                          .cell("W", {W, B})
                          .cell("S", {B})
                          .cell("E", wall)
                          .becomes(B)
                          .idle()
                          .build());
  alg.rules.push_back(RuleBuilder("R10", W)
                          .center({W, B})
                          .cell("N", {W})
                          .cell("W", {W, B})
                          .cell("S", {B})
                          .cell("E", wall)
                          .moves(Dir::South)
                          .build());
  alg.rules.push_back(RuleBuilder("R13", W)
                          .center({W, B})
                          .cell("N", {B})
                          .cell("E", wall)
                          .cell("W", empty)
                          .moves(Dir::West)
                          .build());
  alg.rules.push_back(RuleBuilder("R11", W)
                          .center({W, B})
                          .cell("E", {B})
                          .cell("S", {W})
                          .cell("N", empty)
                          .cell("W", empty)
                          .moves(Dir::West)
                          .build());
  alg.rules.push_back(RuleBuilder("R12", B)
                          .cell("W", {W})
                          .cell("E", {B})
                          .cell("S", {W})
                          .cell("N", empty)
                          .becomes(W)
                          .idle()
                          .build());
  // b-variants: the corner W may drop onto the pivot (R15) before the
  // bottom row finished re-forming; the triggers then read {G,W}.
  alg.rules.push_back(RuleBuilder("R13b", W)
                          .center({W, B})
                          .cell("N", {G, W})
                          .cell("E", wall)
                          .cell("W", empty)
                          .moves(Dir::West)
                          .build());
  alg.rules.push_back(RuleBuilder("R11b", W)
                          .center({W, B})
                          .cell("E", {W, B})
                          .cell("S", {W})
                          .cell("N", empty)
                          .cell("W", empty)
                          .moves(Dir::West)
                          .build());
  alg.rules.push_back(RuleBuilder("R12b", B)
                          .cell("W", {W})
                          .cell("E", {W, B})
                          .cell("S", {W})
                          .cell("N", empty)
                          .becomes(W)
                          .idle()
                          .build());
  alg.rules.push_back(RuleBuilder("R14", B)
                          .cell("N", {W})
                          .cell("W", {W})
                          .cell("S", {B})
                          .cell("E", wall)
                          .becomes(G)
                          .idle()
                          .build());
  alg.rules.push_back(RuleBuilder("R15", W)
                          .cell("S", {G})
                          .cell("E", wall)
                          .cell("W", empty)
                          .moves(Dir::South)
                          .build());
  alg.rules.push_back(RuleBuilder("R16", W)
                          .center({G, W})
                          .cell("S", {B})
                          .cell("W", {W})
                          .cell("E", wall)
                          .moves(Dir::South)
                          .build());

  alg.validate();
  return alg;
}

}  // namespace lumi::algorithms
