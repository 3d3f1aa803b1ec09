// Incremental dirty-tracking match layer on top of the compiled matcher.
//
// The paper's algorithms move at most a handful of robots per instant, so
// between instants most robots observe an unchanged neighborhood and their
// match verdict — including the (rule, sym) witness — cannot have changed.
// A myopic robot sees exactly the nodes within L1 distance phi of it (each
// axis measured the shorter way round where it wraps), so the tracker diffs
// the robots against its copy from the last refresh, takes the old and new
// node of every robot that moved or recolored as the changed nodes, and
// re-runs the compiled matcher only for the robots within phi of one.
// Clean robots reuse the cached verdict verbatim, which keeps the engines'
// per-instant cost proportional to the activity, not the robot count.
#pragma once

#include <memory>
#include <vector>

#include "src/core/compiled.hpp"
#include "src/core/matching.hpp"

namespace lumi {

class DirtyTracker {
 public:
  /// How many per-robot verdicts each refresh() served from cache vs.
  /// re-matched (the incremental-vs-recompute ratio the benches report).
  struct Counters {
    long reused = 0;
    long recomputed = 0;
  };

  /// Watches `config` and computes the initial verdict of every robot.  The
  /// configuration must outlive the tracker, stay at the same address and
  /// keep its robot count.
  DirtyTracker(std::shared_ptr<const CompiledAlgorithm> alg, const Configuration& config);

  /// Brings every cached verdict up to date with the configuration by
  /// re-matching exactly the robots within phi of a node whose content
  /// changed since the last refresh.  All snapshots of one refresh share a
  /// single inline buffer.
  void refresh();

  /// Distinct enabled behaviors of robot `i`, identical (order, witnesses)
  /// to enabled_actions on a fresh snapshot.  Valid until the next mutation.
  const std::vector<Action>& actions(int i) const {
    return actions_[static_cast<std::size_t>(i)];
  }
  bool enabled(int i) const { return !actions(i).empty(); }
  /// The full per-robot verdict table (the sync schedulers' input shape).
  const std::vector<std::vector<Action>>& all_actions() const { return actions_; }

  const Counters& counters() const { return counters_; }

 private:
  void recompute(int robot);

  std::shared_ptr<const CompiledAlgorithm> alg_;
  const Configuration* config_;
  std::vector<std::vector<Action>> actions_;  ///< cached verdict per robot
  std::vector<Robot> last_;                   ///< the robots at the last refresh
  std::vector<Vec> changed_;                  ///< per-refresh scratch
  Snapshot scratch_;                          ///< shared inline snapshot buffer
  Counters counters_;
};

}  // namespace lumi
