// Schedulers for the synchronous models.
//
// A scheduler picks, at every instant, which enabled robots execute a full
// cycle and which of their enabled behaviors each executes (the paper leaves
// both choices to the scheduler / adversary).
#pragma once

#include <memory>
#include <vector>

#include "src/core/rng.hpp"
#include "src/engine/sync_engine.hpp"

namespace lumi {

class SyncScheduler {
 public:
  virtual ~SyncScheduler() = default;
  /// `enabled[i]` holds robot i's distinct enabled behaviors (empty when
  /// disabled).  Replaces the contents of `out` with a nonempty selection of
  /// (robot, action) pairs with actions drawn from the corresponding
  /// `enabled` entries; the engines pass one buffer reused across instants.
  /// When no robot is enabled, must leave `out` empty without consuming any
  /// randomness or mutating fairness state: the engines detect termination
  /// from the empty selection (they no longer pre-scan `enabled` every
  /// instant — that scan was a measurable share of a micro-run), so every
  /// scheduler sees exactly one call with an all-disabled table, at the
  /// terminating instant.
  virtual void select(const std::vector<std::vector<Action>>& enabled,
                      std::vector<RobotAction>& out) = 0;
};

/// FSYNC: every enabled robot acts every instant.  Among multiple enabled
/// behaviors of one robot the first is taken.
class FsyncScheduler final : public SyncScheduler {
 public:
  void select(const std::vector<std::vector<Action>>& enabled,
              std::vector<RobotAction>& out) override;
};

/// SSYNC: a uniformly random nonempty subset of the enabled robots acts; a
/// random enabled behavior is chosen for each.  Fair with probability 1.
class SsyncRandomScheduler final : public SyncScheduler {
 public:
  explicit SsyncRandomScheduler(unsigned seed);
  void select(const std::vector<std::vector<Action>>& enabled,
              std::vector<RobotAction>& out) override;

 private:
  rng::Engine rng_;
  std::vector<int> candidates_;  ///< per-instant scratch, reused across calls
};

/// SSYNC: activates exactly one enabled robot per instant, rotating through
/// robot indices (a maximally sequential fair scheduler).
class SsyncRoundRobinScheduler final : public SyncScheduler {
 public:
  SsyncRoundRobinScheduler() = default;
  void select(const std::vector<std::vector<Action>>& enabled,
              std::vector<RobotAction>& out) override;

 private:
  int next_ = 0;
};

}  // namespace lumi
