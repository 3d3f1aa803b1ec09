// Shared by the matcher differentials (CompiledMatcher, DirtyTracker and
// GuardSimd): one world of every topology family sized for an algorithm, and
// random robot placements on it.  A plain grid has walls only past its
// border; the holed and obstacle grids put walls in any kernel cell, and the
// small torus and ring wrap a robot's view back onto itself.
#pragma once

#include <random>
#include <string>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/topo/topology.hpp"

namespace lumi {

/// The plain grid with two rows and columns of headroom over the
/// algorithm's minimum, then a holed grid, a 15% obstacle grid drawn from
/// `seed`, a 2x3 torus (a phi-2 view sees its own node two rows away) and a
/// 1x4 ring (walls above and below, the row wrapping within the view).
inline std::vector<Topology> random_worlds(const Algorithm& alg, unsigned seed) {
  const int rows = alg.min_rows + 2;
  const int cols = alg.min_cols + 2;
  return {Topology(rows, cols), make_topology("holes", rows + 1, cols + 1),
          make_topology("obstacles:15:" + std::to_string(seed), rows + 2, cols + 2),
          Topology::torus(2, 3), Topology::ring(1, 4)};
}

/// alg.num_robots() robots with random colors at random nodes of `world`
/// (stacks allowed); a position that lands on a wall is drawn again.
inline Configuration random_configuration(const Algorithm& alg, const Topology& world,
                                          std::mt19937& rng) {
  std::uniform_int_distribution<int> row(0, world.rows() - 1);
  std::uniform_int_distribution<int> col(0, world.cols() - 1);
  std::uniform_int_distribution<int> color(0, alg.num_colors - 1);
  std::vector<Robot> robots;
  while (static_cast<int>(robots.size()) < alg.num_robots()) {
    const Vec pos{row(rng), col(rng)};
    if (!world.contains(pos)) continue;
    robots.push_back(Robot{pos, static_cast<Color>(color(rng))});
  }
  return Configuration(world, std::move(robots));
}

}  // namespace lumi
