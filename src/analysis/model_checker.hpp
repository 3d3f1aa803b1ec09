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
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/grid.hpp"

namespace lumi {

enum class CheckModel : std::uint8_t { Fsync, Ssync, Async };

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
