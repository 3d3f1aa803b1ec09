#include "src/core/matching.hpp"

#include <gtest/gtest.h>

#include "src/engine/async_engine.hpp"

namespace lumi {
namespace {

using enum Color;

Algorithm tiny_algorithm(Chirality chirality) {
  Algorithm alg;
  alg.name = "tiny";
  alg.model = Synchrony::Fsync;
  alg.phi = 1;
  alg.num_colors = 2;
  alg.chirality = chirality;
  alg.min_rows = 2;
  alg.min_cols = 3;
  alg.initial_robots = {{{0, 0}, G}, {{0, 1}, W}};
  // "G with a W neighbor in front steps toward it" authored facing East.
  alg.rules.push_back(
      RuleBuilder("R1", G).cell("E", {W}).moves(Dir::East).build());
  alg.validate();
  return alg;
}

TEST(Matching, RotationMapsMovementToWorldFrame) {
  const Algorithm alg = tiny_algorithm(Chirality::Common);
  const Grid grid(3, 3);
  // W is SOUTH of G: the guard matches under a 90-degree rotation and the
  // movement must come out as South in the global frame.
  Configuration c = make_configuration(grid, {{{0, 1}, {G}}, {{1, 1}, {W}}});
  const auto actions = enabled_actions(alg, c, 0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].move, Dir::South);
  EXPECT_EQ(actions[0].new_color, G);
}

TEST(Matching, SelfColorMustMatch) {
  const Algorithm alg = tiny_algorithm(Chirality::Common);
  const Grid grid(3, 3);
  Configuration c = make_configuration(grid, {{{0, 1}, {W}}, {{1, 1}, {W}}});
  EXPECT_TRUE(enabled_actions(alg, c, 0).empty());
}

TEST(Matching, ImplicitGrayRejectsUnexpectedRobots) {
  const Algorithm alg = tiny_algorithm(Chirality::Common);
  const Grid grid(3, 3);
  // A second W behind G violates the implicit gray on the West cell.
  Configuration c =
      make_configuration(grid, {{{1, 1}, {G}}, {{1, 2}, {W}}, {{1, 0}, {W}}});
  // Two W neighbors: guard matches toward each of them?  No: whichever
  // rotation aligns E with one W leaves the other W on a gray cell.
  EXPECT_TRUE(enabled_actions(alg, c, 0).empty());
}

TEST(Matching, DistinctBehaviorsAreDeduplicated) {
  // A symmetric "move north" rule matches under several symmetries but with
  // identical behavior; enabled_actions must report it once per direction.
  Algorithm alg;
  alg.name = "sym";
  alg.model = Synchrony::Fsync;
  alg.phi = 1;
  alg.num_colors = 1;
  alg.chirality = Chirality::None;
  alg.min_rows = 2;
  alg.min_cols = 3;
  alg.initial_robots = {{{0, 0}, G}};
  alg.rules.push_back(RuleBuilder("R1", G).cell("N", CellPattern::empty()).moves(Dir::North).build());
  alg.validate();

  const Grid grid(3, 3);
  Configuration c = make_configuration(grid, {{{1, 1}, {G}}});
  const auto actions = enabled_actions(alg, c, 0);
  // All four neighbor cells empty: four distinct world directions.
  EXPECT_EQ(actions.size(), 4u);
}

TEST(Matching, MirrorOnlyAvailableWithoutChirality) {
  // Guard: W at East AND wall at North (chiral when combined with a
  // south-empty constraint breaking the mirror).
  Algorithm chiral;
  chiral.name = "chiral";
  chiral.model = Synchrony::Fsync;
  chiral.phi = 1;
  chiral.num_colors = 2;
  chiral.chirality = Chirality::Common;
  chiral.min_rows = 2;
  chiral.min_cols = 3;
  chiral.initial_robots = {{{0, 0}, G}, {{0, 1}, W}};
  chiral.rules.push_back(RuleBuilder("R1", G)
                             .cell("N", CellPattern::wall())
                             .cell("E", {W})
                             .cell("S", CellPattern::empty())
                             .moves(Dir::South)
                             .build());
  chiral.validate();

  const Grid grid(3, 3);
  // Mirrored situation: wall North, W at WEST.  With common chirality the
  // rule must NOT match; without chirality it must.
  Configuration c = make_configuration(grid, {{{0, 1}, {G}}, {{0, 0}, {W}}});
  EXPECT_TRUE(enabled_actions(chiral, c, 0).empty());

  Algorithm achiral = chiral;
  achiral.chirality = Chirality::None;
  const auto actions = enabled_actions(achiral, c, 0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].move, Dir::South);  // mirror fixes South
}

TEST(Matching, CenterPatternSeesWholeStack) {
  Algorithm alg;
  alg.name = "stack";
  alg.model = Synchrony::Fsync;
  alg.phi = 1;
  alg.num_colors = 2;
  alg.chirality = Chirality::Common;
  alg.min_rows = 2;
  alg.min_cols = 3;
  alg.initial_robots = {{{0, 0}, G}, {{0, 0}, W}};
  alg.rules.push_back(
      RuleBuilder("R1", G).center({G, W}).cell("E", CellPattern::empty()).moves(Dir::East).build());
  alg.validate();

  const Grid grid(2, 3);
  Configuration stacked = make_configuration(grid, {{{0, 0}, {G, W}}});
  EXPECT_FALSE(enabled_actions(alg, stacked, 0).empty());  // robot 0 is the G

  Configuration alone = make_configuration(grid, {{{0, 0}, {G}}});
  EXPECT_TRUE(enabled_actions(alg, alone, 0).empty());
}

TEST(Matching, IsTerminalChecksAllRobots) {
  const Algorithm alg = tiny_algorithm(Chirality::Common);
  const Grid grid(2, 3);
  Configuration moving = make_configuration(grid, {{{0, 0}, {G}}, {{0, 1}, {W}}});
  Configuration still = make_configuration(grid, {{{0, 0}, {G}}, {{1, 2}, {W}}});
  for (const bool incremental : {true, false}) {
    EXPECT_FALSE(AsyncEngine(alg, moving, incremental).terminal()) << incremental;
    EXPECT_TRUE(AsyncEngine(alg, still, incremental).terminal()) << incremental;
  }
}

}  // namespace
}  // namespace lumi
