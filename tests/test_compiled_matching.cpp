// Differential test: the compiled matcher must produce exactly the same
// enabled-action sets as the naive sparse-scan reference — same behaviors,
// same order, same (rule_index, sym) witnesses — for every Table-1 algorithm
// over randomized configurations (random positions incl. stacks, random
// colors) on every topology family: walls past a grid's border, walls inside
// holed and obstacle grids, and views that wrap onto themselves on a small
// torus and ring.  This pins the compiled hot path to the reference
// semantics.
#include "src/core/matching.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "src/algorithms/registry.hpp"
#include "tests/random_worlds.hpp"

namespace lumi {
namespace {

bool same_action(const Action& a, const Action& b) {
  return a.new_color == b.new_color && a.move == b.move && a.rule_index == b.rule_index &&
         a.sym == b.sym;
}

TEST(CompiledMatcher, MatchesNaiveOnRandomConfigurations) {
  std::mt19937 rng(20260729);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    // Small worlds keep walls inside most views; the grid's +2 headroom
    // exercises interior cells too.
    for (const Topology& world : random_worlds(alg, 3)) {
      for (int trial = 0; trial < 120; ++trial) {
        const Configuration config = random_configuration(alg, world, rng);
        const std::string where = e.section + " on " + world.to_string() + " trial " +
                                  std::to_string(trial) + ": " + config.to_string();
        for (int r = 0; r < config.num_robots(); ++r) {
          const Snapshot snap = take_snapshot(config, r, alg.phi);
          const std::vector<Action> reference = naive_enabled_actions(alg, snap);
          const std::vector<Action> fast = enabled_actions(*compiled, snap);
          ASSERT_EQ(fast.size(), reference.size()) << where << " robot " << r;
          for (std::size_t i = 0; i < reference.size(); ++i) {
            EXPECT_TRUE(same_action(fast[i], reference[i]))
                << where << " robot " << r << " action " << i;
          }
        }
      }
    }
  }
}

TEST(CompiledMatcher, RejectsSnapshotWithMismatchedPhi) {
  // The compiled tables are dense over the algorithm's own kernel; a phi-1
  // snapshot would leave cells 5..12 unfilled but readable.
  const Algorithm alg = algorithms::entry("4.2.1").make();  // phi = 2
  ASSERT_EQ(alg.phi, 2);
  const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
  const Grid grid(alg.min_rows, alg.min_cols);
  const Configuration config = alg.initial_configuration(grid);
  const Snapshot narrow = take_snapshot(config, 0, 1);
  EXPECT_THROW(enabled_actions(*compiled, narrow), std::invalid_argument);
}

TEST(CompiledMatcher, CacheSharesCompilationsAcrossEqualAlgorithms) {
  const Algorithm a = algorithms::entry("4.3.1").make();
  const Algorithm b = algorithms::entry("4.3.1").make();  // independent copy
  EXPECT_EQ(CompiledAlgorithm::get(a), CompiledAlgorithm::get(b));
  const Algorithm other = algorithms::entry("4.2.1").make();
  EXPECT_NE(CompiledAlgorithm::get(a), CompiledAlgorithm::get(other));
}

TEST(CompiledMatcher, AlgorithmOverloadsRouteThroughCompiledPath) {
  const Algorithm alg = algorithms::entry("4.3.5").make();
  const Grid grid(alg.min_rows, alg.min_cols);
  const Configuration config = alg.initial_configuration(grid);
  for (int r = 0; r < config.num_robots(); ++r) {
    const Snapshot snap = take_snapshot(config, r, alg.phi);
    const std::vector<Action> via_algorithm = enabled_actions(alg, config, r);
    const std::vector<Action> reference = naive_enabled_actions(alg, snap);
    ASSERT_EQ(via_algorithm.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(same_action(via_algorithm[i], reference[i]));
    }
  }
}

}  // namespace
}  // namespace lumi
