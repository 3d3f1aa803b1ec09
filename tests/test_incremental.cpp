// Differential tests for the incremental dirty-tracking match engine: over
// randomized multi-instant executions of every Table-1 algorithm on every
// topology family, the tracker's cached verdicts must equal — behaviors,
// order and (rule, sym) witnesses — both the compiled matcher re-run from
// scratch and the naive sparse-scan reference, and the engines must produce
// identical runs with dirty tracking on and off under FSYNC, SSYNC and ASYNC
// schedulers.
#include "src/core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>

#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"
#include "src/core/rng.hpp"
#include "src/engine/async_engine.hpp"
#include "src/engine/runner.hpp"
#include "src/engine/sync_engine.hpp"
#include "tests/random_worlds.hpp"

namespace lumi {
namespace {

bool same_action(const Action& a, const Action& b) {
  return a.new_color == b.new_color && a.move == b.move && a.rule_index == b.rule_index &&
         a.sym == b.sym;
}

/// The kernel-footprint rule, kept as the reference for the tracker's dirty
/// set: robot r is re-matched iff some kernel offset o makes pos_r + o
/// designate the old or the new node of a robot that changed since `before`.
long reference_recomputed(const Configuration& config, std::span<const Robot> before, int phi) {
  const Topology& topo = config.topology();
  std::vector<int> changed;
  for (int c = 0; c < config.num_robots(); ++c) {
    const Robot& was = before[static_cast<std::size_t>(c)];
    if (was == config.robot(c)) continue;
    changed.push_back(topo.index(was.pos));
    changed.push_back(topo.index(config.robot(c).pos));
  }
  const std::span<const Vec> kernel = ViewKernel::get(phi).offsets();
  long dirty = 0;
  for (const Robot& r : config.robots()) {
    dirty += std::any_of(kernel.begin(), kernel.end(), [&](Vec o) {
      return std::find(changed.begin(), changed.end(), topo.canonical_index(r.pos + o)) !=
             changed.end();
    });
  }
  return dirty;
}

/// Refreshes the tracker and asserts that it re-matched exactly the robots
/// the reference rule names for the changes since `before`, and that
/// tracker == compiled-from-scratch == naive for every robot.
void expect_tracker_matches_references(const Algorithm& alg, const CompiledAlgorithm& compiled,
                                       const Configuration& config, std::span<const Robot> before,
                                       DirtyTracker& tracker, const char* context) {
  const long recomputed = tracker.counters().recomputed;
  tracker.refresh();
  ASSERT_EQ(tracker.counters().recomputed - recomputed,
            reference_recomputed(config, before, alg.phi))
      << context;
  const std::vector<std::vector<Action>> fresh = all_enabled_actions(compiled, config);
  ASSERT_EQ(tracker.all_actions().size(), fresh.size()) << context;
  for (int r = 0; r < config.num_robots(); ++r) {
    const std::vector<Action>& cached = tracker.actions(r);
    const std::vector<Action>& want = fresh[static_cast<std::size_t>(r)];
    ASSERT_EQ(cached.size(), want.size()) << context << " robot " << r;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(same_action(cached[i], want[i])) << context << " robot " << r << " action " << i;
    }
    const std::vector<Action> naive =
        naive_enabled_actions(alg, take_snapshot(config, r, alg.phi));
    ASSERT_EQ(cached.size(), naive.size()) << context << " robot " << r;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      ASSERT_TRUE(same_action(cached[i], naive[i]))
          << context << " (vs naive) robot " << r << " action " << i;
    }
    EXPECT_EQ(tracker.enabled(r), !naive.empty()) << context << " robot " << r;
  }
}

TEST(DirtyTracker, MatchesCompiledAndNaiveOverRandomizedSyncRuns) {
  std::mt19937 rng(20260729);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    // The plain grid starts from the algorithm's own placement; the other
    // families start from random placements.
    for (const Topology& world : random_worlds(alg, 5)) {
      for (int run = 0; run < 8; ++run) {
        Configuration config = world.plain() ? alg.initial_configuration(world)
                                             : random_configuration(alg, world, rng);
        DirtyTracker tracker(compiled, config);
        std::vector<Robot> before(config.robots().begin(), config.robots().end());
        for (int instant = 0; instant < 60; ++instant) {
          const std::string context = e.section + " on " + world.to_string() + " run " +
                                      std::to_string(run) + " instant " +
                                      std::to_string(instant);
          expect_tracker_matches_references(alg, *compiled, config, before, tracker,
                                            context.c_str());
          before.assign(config.robots().begin(), config.robots().end());
          // SSYNC-style adversary: activate a random nonempty subset of the
          // enabled robots with a random enabled behavior each, so successive
          // instants dirty arbitrary neighborhood combinations.
          std::vector<RobotAction> selected;
          for (int r = 0; r < config.num_robots(); ++r) {
            const std::vector<Action>& actions = tracker.actions(r);
            if (actions.empty()) continue;
            if (bounded_draw(rng, 2) == 0 && !selected.empty()) continue;
            const std::uint32_t pick =
                bounded_draw(rng, static_cast<std::uint32_t>(actions.size()));
            selected.push_back(RobotAction{r, actions[pick]});
          }
          if (selected.empty()) break;  // terminal configuration
          apply_sync_step(config, selected);
        }
      }
    }
  }
}

TEST(DirtyTracker, ReusesVerdictsWhenNothingChanged) {
  const Algorithm alg = algorithms::entry("4.3.1").make();
  Configuration config = alg.initial_configuration(Grid(4, 5));
  DirtyTracker tracker(CompiledAlgorithm::get(alg), config);
  const long base = tracker.counters().recomputed;
  EXPECT_EQ(base, config.num_robots());  // initial full compute
  tracker.refresh();
  tracker.refresh();
  EXPECT_EQ(tracker.counters().recomputed, base);  // clean refreshes recompute nothing
  EXPECT_EQ(tracker.counters().reused, 2L * config.num_robots());
}

TEST(DirtyTracker, RecomputesOnlyNeighborhoodsCoveringTheChange) {
  // Robot 0 starts on (0, 0), recolors, then takes one step (west across
  // the seam where the columns wrap).  Exactly the robots within phi = 2 of
  // its old or new node are re-matched, each axis measured the shorter way
  // round where it wraps: a robot one step across a seam is, a robot three
  // or more steps away is not.
  const Algorithm alg = algorithms::entry("4.3.1").make();
  ASSERT_EQ(alg.phi, 2);
  struct Case {
    Topology world;
    std::vector<Vec> others;  ///< robots 1.., all white
    Dir step;
    long recolor_recomputes;
    long step_recomputes;
  };
  const Case cases[] = {
      // (0,2) is 2 away, (1,2) is 3 away until robot 0 steps to (0,1).
      {Grid(4, 12), {{0, 2}, {1, 2}, {0, 11}}, Dir::East, 2, 3},
      // (0,11), (5,0) and (5,11) sit across a seam; (3,0) is 3 away both
      // ways round, (0,9) until robot 0 steps onto (0,11).
      {Topology::torus(6, 12), {{0, 11}, {5, 0}, {3, 0}, {0, 9}, {5, 11}}, Dir::West, 4, 5},
      // (0,11) and (0,10) sit across the seam; (0,9) is 3 away until robot
      // 0 steps onto (0,11), and (0,3) stays 3 away.
      {Topology::ring(1, 12), {{0, 11}, {0, 10}, {0, 9}, {0, 3}}, Dir::West, 3, 4},
  };
  for (const Case& c : cases) {
    std::vector<Robot> robots = {Robot{{0, 0}, Color::G}};
    for (const Vec v : c.others) robots.push_back(Robot{v, Color::W});
    Configuration config(c.world, robots);
    DirtyTracker tracker(CompiledAlgorithm::get(alg), config);
    const std::string where = c.world.to_string();
    long recomputed = tracker.counters().recomputed;
    ASSERT_EQ(recomputed, config.num_robots()) << where;
    config.set_color(0, Color::B);
    tracker.refresh();
    EXPECT_EQ(tracker.counters().recomputed - recomputed, c.recolor_recomputes) << where;
    recomputed = tracker.counters().recomputed;
    config.move_robot(0, *c.world.step({0, 0}, c.step));
    tracker.refresh();
    EXPECT_EQ(tracker.counters().recomputed - recomputed, c.step_recomputes) << where;
    EXPECT_EQ(tracker.counters().reused + tracker.counters().recomputed,
              3L * config.num_robots())
        << where;
  }
}

TEST(IncrementalEngines, AsyncEngineIdenticalWithTrackingOnAndOff) {
  std::mt19937 rng(7);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const Grid grid(alg.min_rows + 1, alg.min_cols + 1);
    AsyncEngine inc(alg, alg.initial_configuration(grid), /*incremental=*/true);
    AsyncEngine ref(alg, alg.initial_configuration(grid), /*incremental=*/false);
    for (int event = 0; event < 240; ++event) {
      const std::vector<int> effective = inc.effective_robots();
      ASSERT_EQ(effective, ref.effective_robots()) << e.section << " event " << event;
      ASSERT_EQ(inc.terminal(), ref.terminal()) << e.section << " event " << event;
      if (effective.empty()) break;
      const int robot =
          effective[bounded_draw(rng, static_cast<std::uint32_t>(effective.size()))];
      if (inc.phase(robot) == Phase::Idle) {
        const std::vector<Action> choices = inc.look_choices(robot);
        const std::vector<Action> ref_choices = ref.look_choices(robot);
        ASSERT_EQ(choices.size(), ref_choices.size()) << e.section << " event " << event;
        for (std::size_t i = 0; i < choices.size(); ++i) {
          ASSERT_TRUE(same_action(choices[i], ref_choices[i]))
              << e.section << " event " << event << " choice " << i;
        }
        if (choices.empty()) continue;
        const std::uint32_t pick = bounded_draw(rng, static_cast<std::uint32_t>(choices.size()));
        inc.activate(robot, choices[pick]);
        ref.activate(robot, ref_choices[pick]);
      } else {
        inc.activate(robot);
        ref.activate(robot);
      }
      ASSERT_TRUE(inc.config().same_placement(ref.config()))
          << e.section << " diverged at event " << event;
    }
  }
}

TEST(IncrementalEngines, RunnersIdenticalWithTrackingOnAndOff) {
  // End-to-end: every scheduler family over representative sections; the
  // semantic result fields must be bit-identical (the reuse counters are the
  // only permitted difference).
  using campaign::Cell;
  using campaign::SchedKind;
  for (const std::string& section : {std::string("4.2.1"), std::string("4.3.1"),
                                     std::string("4.3.5")}) {
    const Algorithm alg = algorithms::entry(section).make();
    for (campaign::SchedKind kind : campaign::kAllSchedKinds) {
      if (!campaign::compatible(alg.model, kind)) continue;
      for (unsigned seed : {1u, 2u, 3u}) {
        const Cell cell{section, alg.min_rows + 1, alg.min_cols + 2, kind};
        RunOptions on;
        RunOptions off;
        off.incremental = false;
        const RunResult a = campaign::run_cell(cell, seed, on);
        const RunResult b = campaign::run_cell(cell, seed, off);
        const std::string context =
            section + " " + campaign::to_string(kind) + " seed " + std::to_string(seed);
        EXPECT_EQ(a.terminated, b.terminated) << context;
        EXPECT_EQ(a.explored_all, b.explored_all) << context;
        EXPECT_EQ(a.failure, b.failure) << context;
        EXPECT_EQ(a.visited, b.visited) << context;
        EXPECT_EQ(a.stats.instants, b.stats.instants) << context;
        EXPECT_EQ(a.stats.activations, b.stats.activations) << context;
        EXPECT_EQ(a.stats.moves, b.stats.moves) << context;
        EXPECT_EQ(a.stats.color_changes, b.stats.color_changes) << context;
        EXPECT_GT(a.stats.match_reused + a.stats.match_recomputed, 0) << context;
        EXPECT_EQ(b.stats.match_reused, 0) << context;
        EXPECT_EQ(b.stats.match_recomputed, 0) << context;
      }
    }
  }
}

TEST(IncrementalEngines, CampaignSummariesIdenticalWithTrackingOnAndOff) {
  campaign::Matrix m;
  m.sections = {"4.2.1", "4.3.1", "4.3.5"};
  m.rows = {4, 6, 2};
  m.cols = {4, 6, 2};
  m.schedulers.assign(std::begin(campaign::kAllSchedKinds), std::end(campaign::kAllSchedKinds));
  m.seeds = {7, 8};
  campaign::Expansion on = campaign::expand(m);
  campaign::Expansion off = on;
  off.options.incremental = false;
  const campaign::CampaignSummary a = campaign::run_campaign(on, 2);
  const campaign::CampaignSummary b = campaign::run_campaign(off, 2);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i].cell == b.cells[i].cell);
    EXPECT_EQ(a.cells[i].acc, b.cells[i].acc) << to_string(a.cells[i].cell);
  }
  EXPECT_EQ(a.total, b.total);
}

}  // namespace
}  // namespace lumi
