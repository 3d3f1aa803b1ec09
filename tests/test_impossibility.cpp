// Theorem 1 demonstrations: a fair SSYNC adversary defeats two-robot phi=1
// algorithms, while the paper's three-robot phi=1 algorithm withstands every
// fair SSYNC schedule on the same grids.
#include "src/analysis/impossibility.hpp"

#include <gtest/gtest.h>

#include "src/algorithms/algorithms.hpp"

namespace lumi {
namespace {

using enum Color;

TEST(Impossibility, TwoRobotPhi1PairLosesInSsync) {
  // Algorithm 3 solves the task under FSYNC with k=2, phi=1; Theorem 1 says
  // no such algorithm survives the SSYNC adversary.
  const Algorithm alg = algorithms::algorithm3();
  const AdversaryResult r = find_ssync_adversary(alg, Grid(4, 4));
  EXPECT_TRUE(r.adversary_wins) << r.summary;
}

TEST(Impossibility, NaiveSweepPairLosesInSsync) {
  // A hand-rolled two-robot phi=1 sweeping pair (W leads, G chases).
  Algorithm naive;
  naive.name = "naive-sweep-k2";
  naive.model = Synchrony::Ssync;
  naive.phi = 1;
  naive.num_colors = 2;
  naive.chirality = Chirality::Common;
  naive.min_rows = 2;
  naive.min_cols = 3;
  naive.initial_robots = {{{0, 0}, G}, {{0, 1}, W}};
  naive.rules.push_back(
      RuleBuilder("R1", W).cell("W", {G}).cell("E", CellPattern::empty()).moves(Dir::East).build());
  naive.rules.push_back(RuleBuilder("R2", G).cell("E", {W}).moves(Dir::East).build());
  naive.rules.push_back(RuleBuilder("R3", W)
                            .cell("W", {G})
                            .cell("E", CellPattern::wall())
                            .cell("S", CellPattern::empty())
                            .moves(Dir::South)
                            .build());
  naive.validate();
  const AdversaryResult r = find_ssync_adversary(naive, Grid(4, 4));
  EXPECT_TRUE(r.adversary_wins) << r.summary;
}

TEST(Impossibility, ThreeRobotPhi1AlgorithmSurvives) {
  // Algorithm 10 (k=3, phi=1) is SSYNC-correct: no node can be defended.
  const Algorithm alg = algorithms::algorithm10();
  const AdversaryResult r = find_ssync_adversary(alg, Grid(3, 3));
  EXPECT_FALSE(r.adversary_wins) << "node (" << r.protected_node.row << ","
                                 << r.protected_node.col << "): " << r.summary;
}

TEST(Impossibility, SingleNodeQuery) {
  const Algorithm alg = algorithms::algorithm3();
  // The adversary can certainly defend some node of a 5x5 grid; ask for the
  // center explicitly.
  const AdversaryResult r = check_protected_node(alg, Grid(5, 5), {2, 2});
  EXPECT_TRUE(r.adversary_wins) << r.summary;
  EXPECT_TRUE(r.via_terminal || r.via_fair_cycle);
  // 270 nodes: a state key that kept only the low byte of the node index
  // merged distinct states and explored 768.
  const AdversaryResult wide = check_protected_node(alg, Grid(3, 90), {2, 89});
  EXPECT_EQ(wide.states, 803);
}

TEST(Impossibility, InitialOccupationIsNotDefendable) {
  const Algorithm alg = algorithms::algorithm3();
  const AdversaryResult r = check_protected_node(alg, Grid(4, 4), {0, 0});
  EXPECT_FALSE(r.adversary_wins);
  EXPECT_NE(r.summary.find("initial configuration"), std::string::npos);
}

}  // namespace
}  // namespace lumi
