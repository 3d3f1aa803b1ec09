// Schedulers for the ASYNC model: they choose which robot's next phase event
// fires and resolve multi-behavior Look choices.
#pragma once

#include <vector>

#include "src/core/rng.hpp"
#include "src/engine/async_engine.hpp"

namespace lumi {

class AsyncScheduler {
 public:
  virtual ~AsyncScheduler() = default;
  /// Picks one of `effective` (never empty) to activate next.
  virtual int pick_robot(const AsyncEngine& engine, const std::vector<int>& effective) = 0;
  /// Resolves a Look with several distinct behaviors.
  virtual Action pick_action(const AsyncEngine& engine, int robot,
                             const std::vector<Action>& choices) = 0;
};

/// Uniformly random event interleaving (fair with probability 1).
class AsyncRandomScheduler final : public AsyncScheduler {
 public:
  explicit AsyncRandomScheduler(unsigned seed);
  int pick_robot(const AsyncEngine&, const std::vector<int>&) override;
  Action pick_action(const AsyncEngine&, int, const std::vector<Action>&) override;

 private:
  rng::Engine rng_;
};

/// Centralized: runs each started cycle to completion before any other robot
/// moves — the most sequential ASYNC schedule (equivalent to a singleton
/// SSYNC schedule).
class AsyncCentralizedScheduler final : public AsyncScheduler {
 public:
  AsyncCentralizedScheduler() = default;
  int pick_robot(const AsyncEngine&, const std::vector<int>&) override;
  Action pick_action(const AsyncEngine&, int, const std::vector<Action>&) override;

 private:
  int next_ = 0;
};

/// Stale-view stressor: lets as many robots as possible take snapshots before
/// any of them finishes, maximizing outdated-view and intermediate-color
/// situations.  Randomized tie-breaking, seeded.
class AsyncStaleStressScheduler final : public AsyncScheduler {
 public:
  explicit AsyncStaleStressScheduler(unsigned seed);
  int pick_robot(const AsyncEngine&, const std::vector<int>&) override;
  Action pick_action(const AsyncEngine&, int, const std::vector<Action>&) override;

 private:
  rng::Engine rng_;
};

}  // namespace lumi
