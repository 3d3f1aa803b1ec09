// Exhaustive model checking of terminating exploration on small grids.
//
// For a given algorithm, grid and synchrony model, the checker enumerates
// *every* schedule the model admits (all FSYNC choice resolutions, all
// nonempty SSYNC activation subsets, all ASYNC Look/Compute/Move
// interleavings including stale-snapshot decisions) and verifies that every
// maximal execution terminates in a fully-explored configuration:
//   * no reachable cycle,
//   * every terminal state has all nodes visited,
//   * no robot ever steps off the grid (engine-level exception).
// States carry one visited bit per node, so coverage is exact per path
// prefix; anonymous robots are canonicalized to collapse symmetric states.
//
// The cycle check is the conservative reading: *any* reachable cycle fails,
// fair or not.  Under SSYNC/ASYNC that is stricter than a fair-scheduler
// claim, where a cycle only refutes the claim if some schedule along it
// keeps activating every enabled robot.
//
// The step relation itself is exported as `Successors`, so the Theorem-1
// game (src/analysis/impossibility.cpp) and the engine agreement tests
// expand states through the same FSYNC/SSYNC/ASYNC semantics as the checker.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/configuration.hpp"
#include "src/core/grid.hpp"
#include "src/core/matching.hpp"

namespace lumi {

enum class CheckModel : std::uint8_t { Fsync, Ssync, Async };

/// One robot of a checker state, packed into a word:
///   node index << 9 | light << 7 | phase << 5 | pending light << 3 | pending move + 1
/// Phase 0 is idle, 1 decided (Look done) and 2 colored (Compute-end done);
/// pending move + 1 is 0 for none, else a Dir + 1.  The synchronous models
/// keep every robot idle.
using RobotWord = std::uint32_t;

constexpr int node_of(RobotWord r) { return static_cast<int>(r >> 9); }
constexpr Color color_of(RobotWord r) { return static_cast<Color>((r >> 7) & 3); }
/// An idle robot at bounding-box node `node` showing `color`.
constexpr RobotWord idle_robot(int node, Color color) {
  return static_cast<RobotWord>(node) << 9 | static_cast<RobotWord>(color) << 7 |
         static_cast<RobotWord>(color) << 3;
}

/// The step relation of one algorithm on one grid under one model: every
/// successor a state admits.  FSYNC activates every enabled robot, SSYNC
/// every nonempty subset of them (subsets in increasing bitmask order over
/// the enabled robots), each with every combination of their distinct
/// behaviors; ASYNC steps one robot through Look (one successor per
/// behavior), Compute-end (its new light shows) or Move.  A state is its
/// robots' words in robot order, as many as the algorithm has robots.
class Successors {
 public:
  /// Called once per successor: `next` keeps the robot order, and bit i of
  /// `acted` is set when robot i stepped.
  using Emit = std::function<void(std::span<const RobotWord> next, std::uint64_t acted)>;

  /// `grid` must outlive the relation.  Throws std::invalid_argument when the
  /// grid has more nodes than a robot word indexes, or the algorithm 64
  /// robots or more.
  Successors(const Algorithm& alg, const Grid& grid, CheckModel model);

  /// Emits every successor of `robots` in schedule order and returns the
  /// robots that could step.  `robots` must not alias storage `emit` grows.
  /// Throws std::logic_error when a step would leave the grid.
  std::uint64_t expand(std::span<const RobotWord> robots, const Emit& emit);

 private:
  void look(std::size_t i);
  int step(RobotWord r, Dir d) const;
  std::uint64_t sync_successors(std::span<const RobotWord> robots, const Emit& emit);
  std::uint64_t async_successors(std::span<const RobotWord> robots, const Emit& emit);

  std::shared_ptr<const CompiledAlgorithm> compiled_;
  const Grid& grid_;
  CheckModel model_;
  // Scratch reused by every expansion.
  Configuration config_;
  std::vector<Robot> placed_;
  Snapshot snap_;
  std::vector<std::vector<Action>> actions_;  ///< by robot
  std::vector<RobotWord> next_;
  std::vector<std::size_t> enabled_;
  std::vector<std::size_t> subset_;
  std::vector<std::size_t> choice_;
};

struct CheckOptions {
  long max_states = 4'000'000;
};

struct CheckResult {
  bool ok = false;
  long states = 0;            ///< distinct states visited
  long transitions = 0;
  long terminal_states = 0;
  std::string failure;        ///< empty when ok
  std::vector<std::string> witness;  ///< path to the failure, oldest first

  std::string to_string() const;
};

CheckResult model_check(const Algorithm& alg, const Grid& grid, CheckModel model,
                        const CheckOptions& opts = {});

}  // namespace lumi
