// Topology subsystem: ring/torus wraparound neighbor tables, hole and
// obstacle wall masks, the seeded mask generator's properties (connectivity,
// determinism, rejection of disconnected masks), spec round-trips, the
// plain-grid-through-Topology differential, and the campaign-level contract
// (expansion axis, checkpoint round-trip, shard/merge byte-identity, shared
// cell-plan identity).
#include "src/topo/topology.hpp"

#include <gtest/gtest.h>

#include <set>

#include "src/algorithms/algorithms.hpp"
#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"
#include "src/campaign/checkpoint.hpp"
#include "src/campaign/orchestrate.hpp"
#include "src/campaign/shard.hpp"
#include "src/engine/runner.hpp"
#include "src/trace/report.hpp"

namespace lumi {
namespace {

using enum Color;

// --- neighbor tables: ring --------------------------------------------------

TEST(Ring, WrapsEastWestOnly) {
  const Topology ring = Topology::ring(5);
  EXPECT_EQ(ring.rows(), 1);
  EXPECT_EQ(ring.cols(), 5);
  EXPECT_EQ(ring.reachable_nodes(), 5);
  EXPECT_EQ(ring.family(), Topology::Family::Ring);

  // The seam is a real edge, in both directions.
  EXPECT_EQ(ring.step({0, 4}, Dir::East), (std::optional<Vec>{{0, 0}}));
  EXPECT_EQ(ring.step({0, 0}, Dir::West), (std::optional<Vec>{{0, 4}}));
  // No vertical neighbors: a 1 x n ring is the classic cycle.
  EXPECT_EQ(ring.step({0, 2}, Dir::North), std::nullopt);
  EXPECT_EQ(ring.step({0, 2}, Dir::South), std::nullopt);
  // Every node has exactly two neighbors.
  for (int c = 0; c < 5; ++c) {
    int degree = 0;
    for (Dir d : kAllDirs) degree += ring.step({0, c}, d).has_value() ? 1 : 0;
    EXPECT_EQ(degree, 2);
  }
  // Out-of-box column coordinates designate wrapped nodes.
  EXPECT_TRUE(ring.contains({0, 7}));
  EXPECT_EQ(ring.canonical_index({0, 7}), 2);
  EXPECT_EQ(ring.canonical_index({0, -1}), 4);
  EXPECT_FALSE(ring.contains({1, 0}));
  EXPECT_TRUE(ring.are_adjacent({0, 0}, {0, 4}));
  EXPECT_FALSE(ring.are_adjacent({0, 0}, {0, 2}));
}

// --- neighbor tables: torus -------------------------------------------------

TEST(Torus, WrapsBothAxes) {
  const Topology torus = Topology::torus(3, 4);
  EXPECT_EQ(torus.reachable_nodes(), 12);
  // Every coordinate designates a node; there is no border: every node has
  // four neighbors.
  EXPECT_TRUE(torus.contains({-1, -1}));
  EXPECT_EQ(torus.canonicalize({-1, -1}), (Vec{2, 3}));
  EXPECT_EQ(torus.canonicalize({3, 4}), (Vec{0, 0}));
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      int degree = 0;
      for (Dir d : kAllDirs) degree += torus.step({r, c}, d).has_value() ? 1 : 0;
      EXPECT_EQ(degree, 4);
    }
  }
  EXPECT_EQ(torus.step({0, 0}, Dir::North), (std::optional<Vec>{{2, 0}}));
  EXPECT_EQ(torus.step({2, 0}, Dir::South), (std::optional<Vec>{{0, 0}}));
  EXPECT_EQ(torus.step({0, 3}, Dir::East), (std::optional<Vec>{{0, 0}}));
  EXPECT_TRUE(torus.are_adjacent({0, 0}, {2, 0}));  // seam edge
}

// --- holes ------------------------------------------------------------------

TEST(Holes, CenteredHoleIsWalledAndCounted) {
  const Topology holes = Topology::with_hole(6, 6);  // 2x2 hole at (2,2)
  EXPECT_EQ(holes.spec(), "holes:2x2@2x2");
  EXPECT_EQ(holes.reachable_nodes(), 32);
  EXPECT_LT(holes.reachable_nodes(), holes.num_nodes());  // walls inside the box
  for (const Vec v : {Vec{2, 2}, Vec{2, 3}, Vec{3, 2}, Vec{3, 3}}) {
    EXPECT_FALSE(holes.contains(v)) << v.row << "," << v.col;
    EXPECT_EQ(holes.canonical_index(v), -1);
  }
  EXPECT_TRUE(holes.contains({1, 2}));
  // Stepping into the hole fails like stepping off the border does.
  EXPECT_EQ(holes.step({1, 2}, Dir::South), std::nullopt);
  EXPECT_EQ(holes.step({1, 2}, Dir::North), (std::optional<Vec>{{0, 2}}));
  EXPECT_FALSE(holes.is_node_index(holes.index({2, 2})));
}

TEST(Holes, MustBeStrictlyInterior) {
  EXPECT_THROW(Topology::with_hole(4, 4, 0, 1, 1, 1), std::invalid_argument);  // touches top
  EXPECT_THROW(Topology::with_hole(4, 4, 1, 1, 3, 1), std::invalid_argument);  // reaches bottom
  EXPECT_THROW(Topology::with_hole(2, 5), std::invalid_argument);  // no interior
  EXPECT_NO_THROW(Topology::with_hole(3, 3, 1, 1, 1, 1));
}

// --- obstacle generator properties -----------------------------------------

TEST(Obstacles, GeneratedWorldsAreAlwaysConnected) {
  for (unsigned seed = 1; seed <= 20; ++seed) {
    const Topology topo = Topology::obstacles(8, 8, 15, seed);
    // Reconstruct the free-node set through the public API and BFS it.
    std::set<int> free;
    for (int i = 0; i < topo.num_nodes(); ++i) {
      if (topo.is_node_index(i)) free.insert(i);
    }
    ASSERT_EQ(static_cast<int>(free.size()), topo.reachable_nodes());
    std::vector<int> stack = {*free.begin()};
    std::set<int> seen = {*free.begin()};
    while (!stack.empty()) {
      const Vec v = topo.node(stack.back());
      stack.pop_back();
      for (Dir d : kAllDirs) {
        const std::optional<Vec> n = topo.step(v, d);
        if (n && seen.insert(topo.index(*n)).second) stack.push_back(topo.index(*n));
      }
    }
    EXPECT_EQ(seen, free) << "disconnected world escaped the validator, seed " << seed;
  }
}

TEST(Obstacles, DeterministicInSeedAndDistinctAcrossSeeds) {
  const Topology a = Topology::obstacles(8, 8, 15, 7);
  const Topology b = Topology::obstacles(8, 8, 15, 7);
  EXPECT_EQ(a, b);  // same seed, same mask, bit for bit
  bool any_differ = false;
  for (unsigned seed = 1; seed <= 8; ++seed) {
    any_differ = any_differ || !(Topology::obstacles(8, 8, 15, seed) == a);
  }
  EXPECT_TRUE(any_differ);  // the seed actually drives the mask
}

TEST(Obstacles, AnchorRegionStaysClearAndDensityHonored) {
  const Topology topo = Topology::obstacles(8, 8, 15, 3);
  // The NW 3x3 anchor (where Table-1 initial placements live) is never
  // walled, so every paper algorithm can start on any generated world.
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_TRUE(topo.contains({r, c}));
  }
  // 15% of the 64 - 9 eligible cells, rounded down.
  EXPECT_EQ(topo.reachable_nodes(), 64 - (64 - 9) * 15 / 100);
}

TEST(Obstacles, ValidatorRejectsDisconnectedMasks) {
  // A full-height wall column splits a 4x5 grid: the validator must say no.
  std::vector<std::uint8_t> split(20, 0);
  for (int r = 0; r < 4; ++r) split[static_cast<std::size_t>(r * 5 + 2)] = 1;
  EXPECT_FALSE(mask_connected(4, 5, split));
  // All-wall masks have no free node to explore.
  EXPECT_FALSE(mask_connected(2, 2, {1, 1, 1, 1}));
  EXPECT_TRUE(mask_connected(2, 2, {0, 0, 0, 0}));
}

TEST(Obstacles, PercentOutOfRangeThrows) {
  EXPECT_THROW(Topology::obstacles(8, 8, -1, 1), std::invalid_argument);
  EXPECT_THROW(Topology::obstacles(8, 8, 91, 1), std::invalid_argument);
  EXPECT_NO_THROW(Topology::obstacles(8, 8, 0, 1));
}

// --- spec grammar -----------------------------------------------------------

TEST(TopologySpec, RoundTripsForEveryFamily) {
  for (const char* spec : {"grid", "ring", "torus", "holes", "holes:2x3@1x2",
                           "obstacles:15:7"}) {
    const Topology t = make_topology(spec, 6, 7);
    EXPECT_EQ(make_topology(t.spec(), 6, 7), t) << spec;
  }
  // The auto-hole canonicalizes to its explicit spelling.
  EXPECT_EQ(make_topology("holes", 6, 7).spec(), "holes:2x2@2x2");
}

TEST(TopologySpec, MalformedSpecsThrow) {
  for (const char* spec : {"", "gridd", "obstacles", "obstacles:abc:1", "obstacles:15",
                           "holes:2", "holes:2x", "holes:2x3@9", "torus:1"}) {
    EXPECT_THROW(make_topology(spec, 6, 6), std::invalid_argument) << spec;
  }
  // Numbers parse whole or not at all, and a number that fits its field
  // reaches the family's own checks instead of a fixed cap.
  for (const char* spec : {"obstacles:+5:1", "obstacles:15:-1", "obstacles:15:4294967296",
                           "holes:+2x3", "holes:2x3@1x2x", "holes:2147483648x1",
                           "holes:2x3@1x2147483647", "holes:2147483647x2147483647@1x1"}) {
    EXPECT_THROW(make_topology(spec, 6, 7), std::invalid_argument) << spec;
  }
  EXPECT_TRUE(topology_spec_parses("holes:2000000000x1"));
  EXPECT_EQ(make_topology("obstacles:15:4294967295", 6, 7).spec(), "obstacles:15:4294967295");
}

// --- wraparound end to end --------------------------------------------------

/// Single-robot walker usable on 1-row worlds: moves toward an empty
/// guard-frame East cell.  Never terminates; tests cap the budget and check
/// coverage, which pins the seam edges end to end.
Algorithm ring_walker() {
  Algorithm alg;
  alg.name = "ring-walker";
  alg.model = Synchrony::Fsync;
  alg.phi = 1;
  alg.num_colors = 1;
  alg.chirality = Chirality::Common;
  alg.min_rows = 1;
  alg.min_cols = 3;
  alg.initial_robots = {{{0, 0}, G}};
  alg.rules.push_back(RuleBuilder("Walk", G).cell("E", CellPattern::empty()).moves(Dir::East).build());
  alg.validate();
  return alg;
}

TEST(RingRun, WalkerCoversTheWholeCycle) {
  const Algorithm alg = ring_walker();
  FsyncScheduler sched;
  RunOptions opts;
  opts.max_steps = 16;  // ring length 7: one lap plus change
  const RunResult r = run_sync(alg, Topology::ring(7), sched, opts);
  // The walker never disables, so the budget ends the run — but by then the
  // seam has been crossed and every ring node visited.
  EXPECT_FALSE(r.terminated);
  EXPECT_EQ(r.visited_count(), 7);
  EXPECT_TRUE(r.explored_all == false);  // explored_all only set on termination
}

TEST(TorusRun, WalkerLapsItsRow) {
  const Algorithm alg = ring_walker();
  FsyncScheduler sched;
  RunOptions opts;
  opts.max_steps = 10;
  const RunResult r = run_sync(alg, Topology::torus(3, 5), sched, opts);
  // On a borderless world the first-listed behavior is the guard-frame East
  // under the identity rotation, every instant: the robot laps row 0.
  EXPECT_EQ(r.visited_count(), 5);
}

TEST(HolesRun, PaperAlgorithmTerminatesWithReachableCoverage) {
  // Algorithm 1 (FSYNC, phi=2) on a holed world: termination is not
  // guaranteed by the paper's proof (the hole adds interior walls), so only
  // the coverage bookkeeping is pinned: visited counts reachable nodes and
  // never wall cells.
  const Algorithm alg = algorithms::algorithm1();
  FsyncScheduler sched;
  RunOptions opts;
  opts.max_steps = 5'000;
  const Topology topo = Topology::with_hole(6, 6);
  const RunResult r = run_sync(alg, topo, sched, opts);
  EXPECT_LE(r.visited_count(), topo.reachable_nodes());
  for (const Vec v : {Vec{2, 2}, Vec{2, 3}, Vec{3, 2}, Vec{3, 3}}) {
    EXPECT_FALSE(r.visited[static_cast<std::size_t>(topo.index(v))]);
  }
}

// --- plain-grid differential ------------------------------------------------

TEST(PlainGridDifferential, TopologySpecMatchesSeedGridForAllTableEntries) {
  // The seed Grid constructor and the "grid" spec must drive identical runs
  // for every Table-1 entry — the plain path through Topology *is* the seed
  // path (golden traces elsewhere pin its absolute behavior).
  for (const std::string& section : campaign::all_sections()) {
    const Algorithm alg = algorithms::entry(section).make();
    const int rows = alg.min_rows + 2;
    const int cols = alg.min_cols + 2;
    FsyncScheduler s1, s2;
    const RunResult a = run_sync(alg, Grid(rows, cols), s1);
    const RunResult b = run_sync(alg, make_topology("grid", rows, cols), s2);
    EXPECT_EQ(a.terminated, b.terminated) << section;
    EXPECT_EQ(a.explored_all, b.explored_all) << section;
    EXPECT_EQ(a.visited, b.visited) << section;
    EXPECT_EQ(a.stats.instants, b.stats.instants) << section;
    EXPECT_EQ(a.stats.moves, b.stats.moves) << section;
    EXPECT_EQ(a.stats.color_changes, b.stats.color_changes) << section;
  }
}

TEST(PlainGridDifferential, ZeroDensityObstaclesRunLikeThePlainGrid) {
  // obstacles:0:S has an empty mask: runs must be decision-identical to the
  // plain grid even though the family (and spec) differ.
  const Algorithm alg = algorithms::entry("4.3.5").make();
  SsyncRandomScheduler s1(11), s2(11);
  const RunResult a = run_sync(alg, Grid(5, 6), s1);
  const RunResult b = run_sync(alg, Topology::obstacles(5, 6, 0, 1), s2);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.visited, b.visited);
  EXPECT_EQ(a.stats.instants, b.stats.instants);
  EXPECT_EQ(a.stats.moves, b.stats.moves);
}

// --- campaign integration ---------------------------------------------------

TEST(TopologyCampaign, ExpansionSweepsTheTopologyAxis) {
  campaign::Matrix m;
  m.sections = {"4.2.1"};
  m.rows = {6, 6, 1};
  m.cols = {6, 6, 1};
  m.topologies = {"grid", "torus", "holes"};
  m.schedulers = {campaign::SchedKind::Fsync};
  const campaign::Expansion e = campaign::expand(m);
  ASSERT_EQ(e.cells.size(), 3u);
  EXPECT_EQ(e.cells[0].topo, "grid");
  EXPECT_EQ(e.cells[1].topo, "torus");
  EXPECT_EQ(e.cells[2].topo, "holes:2x2@2x2");  // canonicalized at expansion
  EXPECT_EQ(e.jobs.size(), 3u);
}

TEST(TopologyCampaign, IncompatibleTopologiesAreSkippedOrThrow) {
  campaign::Matrix m;
  m.sections = {"4.2.1"};
  m.rows = {2, 2, 1};  // no interior for a hole at 2 rows
  m.cols = {6, 6, 1};
  m.topologies = {"holes"};
  m.schedulers = {campaign::SchedKind::Fsync};
  EXPECT_TRUE(campaign::expand(m).cells.empty());
}

TEST(TopologyCampaign, WalledInitialPlacementIsSkipped) {
  // Section 4.2.6 (Algorithm 4) starts a robot on (1,1); a hole there must
  // drop the combination rather than crash the job.
  campaign::Matrix m;
  m.sections = {"4.2.6"};
  m.rows = {6, 6, 1};
  m.cols = {6, 6, 1};
  m.topologies = {"holes:1x1@1x1", "grid"};
  m.schedulers = {campaign::SchedKind::Fsync};
  const campaign::Expansion e = campaign::expand(m);
  for (const campaign::Cell& cell : e.cells) EXPECT_NE(cell.topo, "holes:1x1@1x1");
  ASSERT_FALSE(e.cells.empty());
}

TEST(TopologyCampaign, CheckpointRoundTripsTopologyCells) {
  campaign::Matrix m;
  m.sections = {"4.3.1"};
  m.rows = {4, 4, 1};
  m.cols = {5, 5, 1};
  m.topologies = {"torus", "obstacles:10:3"};
  m.schedulers = {campaign::SchedKind::SsyncRandom};
  m.seeds = {1, 2};
  m.options.max_steps = 300;
  const campaign::Expansion e = campaign::expand(m);
  ASSERT_EQ(e.cells.size(), 2u);
  campaign::Checkpoint ck = campaign::make_checkpoint(e);
  ck.cells[0].acc.add(campaign::run_cell(e.cells[0], 1, e.options));
  ck.cells[0].seeds_done = {1};
  const std::string text = campaign::checkpoint_serialize(ck);
  const campaign::Checkpoint back = campaign::checkpoint_parse(text);
  EXPECT_EQ(back, ck);
  EXPECT_EQ(back.cells[0].cell.topo, "torus");
  EXPECT_EQ(campaign::checkpoint_serialize(back), text);  // canonical

  // The topology axis is part of the fingerprint: the same matrix over the
  // plain grid is a different campaign.
  campaign::Matrix plain = m;
  plain.topologies = {"grid", "obstacles:10:3"};
  EXPECT_NE(campaign::expansion_fingerprint(e),
            campaign::expansion_fingerprint(campaign::expand(plain)));
}

TEST(TopologyCampaign, ShardMergeByteIdentityAcrossTopologies) {
  campaign::Matrix m;
  m.sections = {"4.2.1", "4.3.1"};
  m.rows = {4, 6, 2};
  m.cols = {5, 5, 1};
  m.topologies = {"grid", "torus", "holes"};
  m.schedulers = {campaign::SchedKind::Fsync, campaign::SchedKind::SsyncRandom};
  m.seeds = {1, 2};
  m.options.max_steps = 400;  // tori never terminate; keep the jobs bounded
  const campaign::Expansion e = campaign::expand(m);
  ASSERT_GT(e.jobs.size(), 4u);

  const campaign::CampaignSummary direct = campaign::run_campaign(e, 1);
  const std::string want_csv = campaign_csv(direct);
  const std::string want_json = campaign_json(direct);
  EXPECT_NE(want_csv.find("torus"), std::string::npos);

  constexpr unsigned kShards = 3;
  campaign::Checkpoint merged;
  for (unsigned i = 0; i < kShards; ++i) {
    campaign::Checkpoint piece =
        campaign::run_orchestrated(campaign::shard(e, {i, kShards}), {}).checkpoint;
    if (i == 0) {
      merged = std::move(piece);
    } else {
      campaign::checkpoint_merge(merged, piece);
    }
  }
  EXPECT_EQ(campaign_csv(campaign::checkpoint_summary(merged)), want_csv);
  EXPECT_EQ(campaign_json(campaign::checkpoint_summary(merged)), want_json);
}

TEST(TopologyCampaign, SharedCellPlanDoesNotChangeResults) {
  // Every seed of a batch runs from one CellPlan; each run must equal a run
  // from a freshly built plan, on a walled topology and under both engines.
  for (const campaign::Cell& cell :
       {campaign::Cell{"4.3.1", 5, 6, campaign::SchedKind::SsyncRandom, "holes"},
        campaign::Cell{"4.3.5", 4, 5, campaign::SchedKind::AsyncRandom, "torus"}}) {
    RunOptions opts;
    opts.max_steps = 2'000;
    const CellPlan shared = campaign::plan_cell(cell);
    for (const unsigned seed : {1u, 2u, 3u}) {
      const RunResult fresh = campaign::run_cell(cell, seed, opts);
      const RunResult reused = campaign::run_with_sched(shared, cell.sched, seed, opts);
      EXPECT_EQ(fresh.visited, reused.visited) << campaign::to_string(cell) << " " << seed;
      EXPECT_EQ(fresh.stats.instants, reused.stats.instants);
      EXPECT_EQ(fresh.stats.moves, reused.stats.moves);
      EXPECT_EQ(fresh.stats.match_reused, reused.stats.match_reused);
      EXPECT_EQ(fresh.terminated, reused.terminated);
      EXPECT_EQ(fresh.failure, reused.failure);
    }
    // Runs copy the plan's initial configuration; they never mutate it.
    EXPECT_TRUE(shared.initial.same_placement(shared.alg.initial_configuration(shared.topo)));
  }
}

}  // namespace
}  // namespace lumi
