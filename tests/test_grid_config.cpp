#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/configuration.hpp"
#include "src/topo/topology.hpp"

namespace lumi {
namespace {

TEST(Grid, BasicProperties) {
  const Grid g(3, 4);
  EXPECT_EQ(g.rows(), 3);
  EXPECT_EQ(g.cols(), 4);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_TRUE(g.contains({0, 0}));
  EXPECT_TRUE(g.contains({2, 3}));
  EXPECT_FALSE(g.contains({-1, 0}));
  EXPECT_FALSE(g.contains({3, 0}));
  EXPECT_FALSE(g.contains({0, 4}));
}

TEST(Grid, RejectsDegenerateDimensions) {
  EXPECT_THROW(Grid(0, 3), std::invalid_argument);
  EXPECT_THROW(Grid(3, 0), std::invalid_argument);
  // Node indices are int: a box of more than INT_MAX nodes is refused
  // before rows * cols can overflow.
  EXPECT_THROW(Grid(50000, 50000), std::invalid_argument);
  EXPECT_THROW(Grid(2147483647, 2), std::invalid_argument);
  EXPECT_THROW(Topology::ring(50000, 50000), std::invalid_argument);
  EXPECT_THROW(Topology::torus(50000, 50000), std::invalid_argument);
}

TEST(Grid, IndexRoundTrip) {
  const Grid g(5, 7);
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(g.index(g.node(i)), i);
  }
}

TEST(Configuration, CellAndMultiset) {
  const Grid g(2, 3);
  Configuration c = make_configuration(g, {{{0, 0}, {Color::G}}, {{0, 1}, {Color::W, Color::B}}});
  EXPECT_EQ(c.num_robots(), 3);
  EXPECT_EQ(c.multiset_at({0, 0}), (ColorMultiset{Color::G}));
  EXPECT_EQ(c.multiset_at({0, 1}), (ColorMultiset{Color::B, Color::W}));
  EXPECT_TRUE(c.multiset_at({1, 2}).empty());
  EXPECT_FALSE(c.cell({0, 0}).wall);
  EXPECT_TRUE(c.cell({-1, 0}).wall);
  EXPECT_TRUE(c.cell({0, 3}).wall);
}

TEST(Configuration, RejectsOffGridPlacement) {
  const Grid g(2, 3);
  EXPECT_THROW(Configuration(g, {Robot{{5, 5}, Color::G}}), std::invalid_argument);
  // Re-placing validates the same way, before anything changes.
  Configuration c(g, {Robot{{0, 0}, Color::G}});
  const std::vector<Robot> off_grid = {Robot{{1, 1}, Color::W}, Robot{{5, 5}, Color::G}};
  EXPECT_THROW(c.place_robots(off_grid), std::invalid_argument);
  EXPECT_EQ(c.to_string(), "{(0,0):{G}}");
}

TEST(Configuration, MoveValidatesAdjacency) {
  const Grid g(2, 3);
  Configuration c(g, {Robot{{0, 0}, Color::G}});
  c.move_robot(0, {0, 1});
  EXPECT_EQ(c.robot(0).pos, (Vec{0, 1}));
  EXPECT_THROW(c.move_robot(0, {1, 2}), std::logic_error);   // not adjacent
  EXPECT_THROW(c.move_robot(0, {-1, 1}), std::logic_error);  // off grid
}

TEST(Configuration, SteppedMoveMatchesValidatedMove) {
  // The engines apply moves through move_robot_stepped with targets produced
  // by Topology::step; this pins it to the validated move_robot — same
  // position and occupancy — on a bounded grid and across a torus seam
  // (where the canonical target differs from from+dir).
  for (const std::string& spec : {std::string("grid"), std::string("torus")}) {
    const Topology topo = make_topology(spec, 2, 3);
    Configuration a(topo, {Robot{{0, 0}, Color::G}, Robot{{1, 2}, Color::W}});
    Configuration b = a;
    for (const auto& [robot, dir] : std::initializer_list<std::pair<int, Dir>>{
             {0, Dir::East}, {1, Dir::East}, {0, Dir::South}, {1, Dir::North}}) {
      const std::optional<Vec> to = topo.step(a.robot(robot).pos, dir);
      if (!to) continue;  // bounded edge on the plain grid leg
      a.move_robot(robot, *to);
      b.move_robot_stepped(robot, *to);
      EXPECT_EQ(a.robot(robot).pos, b.robot(robot).pos) << spec;
      EXPECT_TRUE(a.same_placement(b)) << spec;
    }
  }
}

TEST(Configuration, SamePlacementIgnoresRobotIdentity) {
  const Grid g(2, 3);
  Configuration a(g, {Robot{{0, 0}, Color::G}, Robot{{0, 1}, Color::W}});
  Configuration b(g, {Robot{{0, 1}, Color::W}, Robot{{0, 0}, Color::G}});
  EXPECT_TRUE(a.same_placement(b));
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  Configuration c(g, {Robot{{0, 0}, Color::W}, Robot{{0, 1}, Color::G}});
  EXPECT_FALSE(a.same_placement(c));
}

TEST(Configuration, ToStringSortedByNode) {
  const Grid g(2, 3);
  Configuration c = make_configuration(g, {{{1, 2}, {Color::W}}, {{0, 0}, {Color::G}}});
  EXPECT_EQ(c.to_string(), "{(0,0):{G}, (1,2):{W}}");
}

TEST(Configuration, OccupancyTracksMutationsAndStaysConsistentOnOverflow) {
  const Grid g(2, 3);
  // Fill node (0,0) to the per-color capacity, plus one robot next door.
  std::vector<Robot> robots(kMaxRobotsPerNode, Robot{{0, 0}, Color::G});
  robots.push_back(Robot{{0, 1}, Color::G});
  Configuration c(g, std::move(robots));
  const int mover = kMaxRobotsPerNode;

  // Moving onto the full stack must throw and leave the occupancy exactly as
  // it was (strong guarantee): the mover is still visible on its own node.
  EXPECT_THROW(c.move_robot(mover, {0, 0}), std::overflow_error);
  EXPECT_EQ(c.robot(mover).pos, (Vec{0, 1}));
  EXPECT_EQ(c.multiset_at({0, 1}).count(Color::G), 1);
  EXPECT_EQ(c.multiset_at({0, 0}).count(Color::G), kMaxRobotsPerNode);

  // Normal mutations keep the incremental occupancy in sync.
  c.set_color(mover, Color::W);
  EXPECT_EQ(c.multiset_at({0, 1}).count(Color::W), 1);
  EXPECT_EQ(c.multiset_at({0, 1}).count(Color::G), 0);
  c.move_robot(mover, {1, 1});
  EXPECT_TRUE(c.multiset_at({0, 1}).empty());
  EXPECT_EQ(c.multiset_at({1, 1}).count(Color::W), 1);
  // Recoloring to the current color is a no-op even on a full stack.
  EXPECT_NO_THROW(c.set_color(0, Color::G));
  EXPECT_EQ(c.multiset_at({0, 0}).count(Color::G), kMaxRobotsPerNode);

  // Re-placing an overfull stack throws and leaves no robots behind.
  const std::vector<Robot> stacked(kMaxRobotsPerNode + 1, Robot{{1, 2}, Color::B});
  EXPECT_THROW(c.place_robots(stacked), std::overflow_error);
  EXPECT_EQ(c.num_robots(), 0);
  for (const ColorMultiset& m : c.occupancy()) EXPECT_TRUE(m.empty());
}

TEST(Configuration, PlaceRobotsMatchesAFreshConfiguration) {
  // Re-placing one configuration must be indistinguishable from building a
  // new one: robots in order, occupancy, canonical storage on a torus seam.
  for (const std::string& spec : {std::string("grid"), std::string("torus")}) {
    const Topology topo = make_topology(spec, 3, 4);
    Configuration c(topo, {Robot{{0, 0}, Color::G}, Robot{{2, 3}, Color::W}});
    std::vector<Robot> next = {Robot{{1, 1}, Color::B}, Robot{{1, 1}, Color::W},
                               Robot{{0, 3}, Color::G}};
    if (spec == "torus") next.push_back(Robot{{3, 4}, Color::G});  // wraps to (0,0)
    c.place_robots(next);
    const Configuration fresh(topo, next);
    ASSERT_EQ(c.num_robots(), fresh.num_robots()) << spec;
    for (int i = 0; i < c.num_robots(); ++i) EXPECT_EQ(c.robot(i), fresh.robot(i)) << spec;
    for (int i = 0; i < topo.num_nodes(); ++i) {
      EXPECT_EQ(c.occupancy()[static_cast<std::size_t>(i)],
                fresh.occupancy()[static_cast<std::size_t>(i)])
          << spec << " node " << i;
    }
    EXPECT_EQ(c.to_string(), fresh.to_string()) << spec;
  }
}

TEST(Configuration, StackedRobotsRender) {
  const Grid g(2, 3);
  Configuration c = make_configuration(g, {{{1, 0}, {Color::G, Color::W, Color::W}}});
  EXPECT_EQ(c.to_string(), "{(1,0):{G,W,W}}");
}

}  // namespace
}  // namespace lumi
