#include "src/sched/sync_schedulers.hpp"

#include "src/core/rng.hpp"

namespace lumi {

namespace {
Action pick_action(rng::Engine& rng, const std::vector<Action>& actions) {
  if (actions.size() == 1) return actions.front();
  return actions[bounded_draw(rng, static_cast<std::uint32_t>(actions.size()))];
}
}  // namespace

void FsyncScheduler::select(const std::vector<std::vector<Action>>& enabled,
                            std::vector<RobotAction>& out) {
  out.clear();
  out.reserve(enabled.size());  // no-op once the engine's buffer has warmed up
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    if (enabled[i].empty()) continue;
    out.push_back(RobotAction{static_cast<int>(i), enabled[i].front()});
  }
}

SsyncRandomScheduler::SsyncRandomScheduler(unsigned seed) : rng_(seed) {}

void SsyncRandomScheduler::select(const std::vector<std::vector<Action>>& enabled,
                                  std::vector<RobotAction>& out) {
  candidates_.clear();
  candidates_.reserve(enabled.size());
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    if (!enabled[i].empty()) candidates_.push_back(static_cast<int>(i));
  }
  out.clear();
  // Terminating instant: nobody is enabled, so there is no nonempty subset
  // to draw.  Return empty without touching the RNG — the draw sequence must
  // match runs recorded before the engines delegated termination detection
  // to the scheduler (the resample loop below would otherwise spin forever).
  if (candidates_.empty()) return;
  out.reserve(candidates_.size());
  while (out.empty()) {  // resample until the subset is nonempty
    for (int robot : candidates_) {
      if (bounded_draw(rng_, 2) == 1) {
        out.push_back(RobotAction{
            robot, pick_action(rng_, enabled[static_cast<std::size_t>(robot)])});
      }
    }
  }
}

void SsyncRoundRobinScheduler::select(const std::vector<std::vector<Action>>& enabled,
                                      std::vector<RobotAction>& out) {
  out.clear();
  const int n = static_cast<int>(enabled.size());
  for (int step = 0; step < n; ++step) {
    const int robot = (next_ + step) % n;
    if (!enabled[static_cast<std::size_t>(robot)].empty()) {
      next_ = (robot + 1) % n;
      out.push_back(RobotAction{robot, enabled[static_cast<std::size_t>(robot)].front()});
      return;
    }
  }
  // no robot enabled (terminating instant): leave `out` empty with the
  // rotation cursor untouched
}

}  // namespace lumi
