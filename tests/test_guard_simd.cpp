// Tests for the bit-sliced guard prefilter (GuardGroup, guard_pass_mask)
// over every Table-1 algorithm and every topology family: each table entry
// equals a reference computed from CellPattern::matches, a lane whose dense
// guard row matches is never rejected, and the padding lanes past the real
// (rule, symmetry) count always reject.
#include <gtest/gtest.h>

#include <random>

#include "src/algorithms/registry.hpp"
#include "src/core/compiled.hpp"
#include "src/core/matching.hpp"
#include "tests/random_worlds.hpp"

namespace lumi {
namespace {

/// Whether `pattern` matches some content of a cell in `state` (empty node,
/// occupied node, wall), decided by CellPattern::matches alone.  An occupied
/// node is tried with one robot and with the pattern's own multiset.
bool can_match(const CellPattern& pattern, std::size_t state) {
  CellContent cell;
  if (state == 0) return pattern.matches(cell);
  if (state == 2) {
    cell.wall = true;
    return pattern.matches(cell);
  }
  cell.robots = ColorMultiset{Color::G};
  if (pattern.matches(cell)) return true;
  cell.robots = pattern.multiset();
  return !cell.robots.empty() && pattern.matches(cell);
}

std::size_t cell_state(SnapshotPlanes planes, int w) {
  return ((planes.wall >> w) & 1u) * 2 + ((planes.occupied >> w) & 1u);
}

const CellPattern* dense_row(std::span<const CompiledRule> rules, std::size_t nsyms,
                             std::size_t lane, int ks) {
  return rules[lane / nsyms].patterns.data() + lane % nsyms * static_cast<std::size_t>(ks);
}

bool pass_bit(const GuardGroup& group, int ks, SnapshotPlanes planes, std::size_t lane) {
  const std::uint64_t mask = guard_pass_mask(group, ks, planes, lane / kGuardLanesPerWord);
  return ((mask >> (lane % kGuardLanesPerWord)) & 1u) != 0;
}

TEST(GuardSimd, VectorScalarAndReferenceAgreeOnAllTable1Entries) {
  std::mt19937 rng(20260808);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    const int ks = compiled->kernel_size();
    const std::size_t nsyms = compiled->symmetries().size();
    // Every entry of every real lane against the per-pattern reference.
    for (int c = 0; c < alg.num_colors; ++c) {
      const GuardGroup& group = compiled->guard_group(static_cast<Color>(c));
      const std::span<const CompiledRule> rules = compiled->rules_for(static_cast<Color>(c));
      ASSERT_EQ(group.lanes, rules.size() * nsyms) << e.section;
      const std::size_t words = (group.lanes + kGuardLanesPerWord - 1) / kGuardLanesPerWord;
      ASSERT_EQ(group.reject.size(), words * static_cast<std::size_t>(ks) * kCellStates)
          << e.section;
      for (std::size_t lane = 0; lane < group.lanes; ++lane) {
        const CellPattern* row = dense_row(rules, nsyms, lane, ks);
        const std::size_t word = lane / kGuardLanesPerWord;
        for (int w = 0; w < ks; ++w) {
          const std::uint64_t* cell =
              group.reject.data() + (word * static_cast<std::size_t>(ks) + w) * kCellStates;
          for (std::size_t state = 0; state < kCellStates; ++state) {
            ASSERT_EQ(((cell[state] >> (lane % kGuardLanesPerWord)) & 1u) != 0,
                      !can_match(row[w], state))
                << e.section << " color " << c << " lane " << lane << " cell " << w
                << " state " << state;
          }
        }
      }
    }
    // Every lane's verdict on real snapshots of every topology family, with
    // the snapshot's own planes pinned against a from-cells recomputation.
    for (const Topology& world : random_worlds(alg, 7)) {
      for (int trial = 0; trial < 40; ++trial) {
        const Configuration config = random_configuration(alg, world, rng);
        for (int r = 0; r < config.num_robots(); ++r) {
          const Snapshot snap = take_snapshot(config, r, alg.phi);
          const SnapshotPlanes planes = snapshot_planes(snap, ks);
          ASSERT_EQ(snap.planes.occupied, planes.occupied)
              << e.section << " " << world.to_string() << " trial " << trial << " robot " << r;
          ASSERT_EQ(snap.planes.wall, planes.wall)
              << e.section << " " << world.to_string() << " trial " << trial << " robot " << r;
          const GuardGroup& group = compiled->guard_group(snap.self_color);
          const std::span<const CompiledRule> rules = compiled->rules_for(snap.self_color);
          for (std::size_t lane = 0; lane < group.lanes; ++lane) {
            const CellPattern* row = dense_row(rules, nsyms, lane, ks);
            bool reference = true;
            for (int w = 0; w < ks; ++w) {
              reference = reference && can_match(row[w], cell_state(planes, w));
            }
            ASSERT_EQ(pass_bit(group, ks, planes, lane), reference)
                << e.section << " " << world.to_string() << " trial " << trial << " robot " << r
                << " lane " << lane;
          }
        }
      }
    }
  }
}

TEST(GuardSimd, PrefilterNeverRejectsAMatchingRow) {
  // Soundness: the prefilter may pass rows that then fail the dense walk,
  // but must never reject a row that would match — otherwise the matcher
  // would silently drop enabled actions.
  std::mt19937 rng(424242);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    const int ks = compiled->kernel_size();
    const std::size_t nsyms = compiled->symmetries().size();
    for (const Topology& world : random_worlds(alg, 11)) {
      for (int trial = 0; trial < 60; ++trial) {
        const Configuration config = random_configuration(alg, world, rng);
        for (int r = 0; r < config.num_robots(); ++r) {
          const Snapshot snap = take_snapshot(config, r, alg.phi);
          const GuardGroup& group = compiled->guard_group(snap.self_color);
          const std::span<const CompiledRule> rules = compiled->rules_for(snap.self_color);
          for (std::size_t lane = 0; lane < group.lanes; ++lane) {
            const CellPattern* row = dense_row(rules, nsyms, lane, ks);
            bool matches = true;
            for (int w = 0; w < ks; ++w) {
              matches = matches && row[w].matches(snap.cells[static_cast<std::size_t>(w)]);
            }
            if (!matches) continue;
            ASSERT_TRUE(pass_bit(group, ks, snap.planes, lane))
                << e.section << " " << world.to_string() << " trial " << trial << " robot " << r
                << " lane " << lane;
          }
        }
      }
    }
  }
}

TEST(GuardSimd, PaddingLanesAlwaysReject) {
  std::mt19937 rng(99);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    const int ks = compiled->kernel_size();
    const auto all = static_cast<std::uint16_t>((1u << ks) - 1);
    // All-empty, all-occupied and all-wall views, then random mixes (a cell
    // is never both occupied and a wall).
    std::vector<SnapshotPlanes> views = {{0, 0}, {all, 0}, {0, all}};
    std::uniform_int_distribution<int> bits(0, all);
    for (int i = 0; i < 64; ++i) {
      const auto wall = static_cast<std::uint16_t>(bits(rng));
      views.push_back({static_cast<std::uint16_t>(bits(rng) & ~wall), wall});
    }
    for (int c = 0; c < alg.num_colors; ++c) {
      const GuardGroup& group = compiled->guard_group(static_cast<Color>(c));
      const std::size_t words = (group.lanes + kGuardLanesPerWord - 1) / kGuardLanesPerWord;
      for (const SnapshotPlanes planes : views) {
        for (std::size_t lane = group.lanes; lane < words * kGuardLanesPerWord; ++lane) {
          EXPECT_FALSE(pass_bit(group, ks, planes, lane))
              << e.section << " color " << c << " padding lane " << lane << " occupied "
              << planes.occupied << " wall " << planes.wall;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lumi
