// ASYNC execution engine.
//
// Each robot cycles through three scheduler-visible events:
//   Look        — snapshot the environment and fix the decision,
//   Compute-end — the decided color change becomes visible to others,
//   Move        — the decided movement is applied.
// Arbitrary time may pass between events of one robot while other robots'
// events interleave, so decisions execute against stale views and other
// robots can observe "recolored but not yet moved" intermediates — the
// situations the paper's ASYNC correctness arguments revolve around.
//
// A robot whose Look finds no enabled rule completes a vacuous cycle; the
// engine collapses such cycles into no-ops (they are unobservable).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/core/incremental.hpp"
#include "src/core/matching.hpp"

namespace lumi {

enum class Phase : std::uint8_t {
  Idle,     ///< between cycles; next event is a Look
  Decided,  ///< Look done, decision latched; next event publishes the color
  Colored,  ///< color applied; next event performs the movement
};

class AsyncEngine {
 public:
  /// With `incremental` (the default) enablement queries are answered from
  /// the dirty tracker, re-matching only robots whose view covers a cell the
  /// last event changed — Look events change nothing, so two of every three
  /// events refresh for free.  Off = recompute-per-query reference path;
  /// observable behavior is identical either way.  `compiled` (optional) is
  /// the compilation of `alg` a CellPlan already resolved; null = look it up
  /// in the shared cache.
  explicit AsyncEngine(const Algorithm& alg, Configuration initial, bool incremental = true,
                       std::shared_ptr<const CompiledAlgorithm> compiled = nullptr);

  // The tracker holds a pointer into config_, so the engine must not move.
  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  const Algorithm& algorithm() const { return *alg_; }
  const Configuration& config() const { return config_; }
  Phase phase(int robot) const { return phases_.at(static_cast<std::size_t>(robot)); }
  const Action& pending(int robot) const;

  /// Robots whose activation would change observable state: robots mid-cycle
  /// plus Idle robots that are currently enabled.
  std::vector<int> effective_robots() const;

  /// Choices available to an Idle robot's Look (distinct enabled behaviors).
  std::vector<Action> look_choices(int robot) const;

  /// Activates one event of `robot`.  For an Idle robot, `chosen` must match
  /// one of look_choices(robot) behaviorally (defaults to the first), and a
  /// non-negative `rule_index`/`sym` witness must consistently derive that
  /// behavior.  For robots mid-cycle `chosen` must be empty.
  void activate(int robot, std::optional<Action> chosen = std::nullopt);

  /// Terminal: every robot Idle and none enabled — the execution is maximal.
  bool terminal() const;

  /// Dirty-tracker reuse/recompute totals; zero on the recompute path.
  DirtyTracker::Counters match_counters() const {
    return tracker_ ? tracker_->counters() : DirtyTracker::Counters{};
  }

 private:
  const Algorithm* alg_;
  std::shared_ptr<const CompiledAlgorithm> compiled_;
  Configuration config_;
  std::vector<Phase> phases_;
  std::vector<Action> pending_;
  std::unique_ptr<DirtyTracker> tracker_;  ///< null when incremental is off
};

}  // namespace lumi
