#include "src/engine/async_engine.hpp"

#include <stdexcept>

namespace lumi {

AsyncEngine::AsyncEngine(const Algorithm& alg, Configuration initial, bool incremental,
                         std::shared_ptr<const CompiledAlgorithm> compiled)
    : alg_(&alg),
      compiled_(compiled != nullptr ? std::move(compiled) : CompiledAlgorithm::get(alg)),
      config_(std::move(initial)),
      phases_(static_cast<std::size_t>(config_.num_robots()), Phase::Idle),
      pending_(static_cast<std::size_t>(config_.num_robots())) {
  if (incremental) tracker_ = std::make_unique<DirtyTracker>(compiled_, config_);
}

const Action& AsyncEngine::pending(int robot) const {
  if (phase(robot) == Phase::Idle) throw std::logic_error("pending: robot has no pending action");
  return pending_.at(static_cast<std::size_t>(robot));
}

std::vector<int> AsyncEngine::effective_robots() const {
  std::vector<int> out;
  for (int i = 0; i < config_.num_robots(); ++i) {
    const bool idle_enabled =
        tracker_ ? tracker_->enabled(i) : !enabled_actions(*compiled_, config_, i).empty();
    if (phase(i) != Phase::Idle || idle_enabled) out.push_back(i);
  }
  return out;
}

std::vector<Action> AsyncEngine::look_choices(int robot) const {
  if (phase(robot) != Phase::Idle) throw std::logic_error("look_choices: robot mid-cycle");
  if (tracker_) return tracker_->actions(robot);
  return enabled_actions(*compiled_, config_, robot);
}

void AsyncEngine::activate(int robot, std::optional<Action> chosen) {
  auto& phase = phases_.at(static_cast<std::size_t>(robot));
  switch (phase) {
    case Phase::Idle: {
      const std::vector<Action> choices = look_choices(robot);
      if (choices.empty()) return;  // vacuous cycle, unobservable
      const Action decision = chosen.value_or(choices.front());
      // Choices are deduplicated by behavior, so at most one can match.
      bool valid = false;
      bool canonical_witness = false;
      for (const Action& c : choices) {
        if (c.same_behavior(decision)) {
          valid = true;
          canonical_witness = c.rule_index == decision.rule_index && c.sym == decision.sym;
          break;
        }
      }
      if (!valid) throw std::logic_error("activate: chosen action is not enabled");
      // A caller-supplied witness must itself derive the behavior it claims:
      // the rule must exist, its symmetry must be admissible, its guard must
      // match under that symmetry, and the rule's action mapped through it
      // must reproduce the decision.  Actions taken verbatim from
      // look_choices carry the canonical witness and skip this re-check, so
      // the scheduler-driven hot path pays nothing for it.
      if (chosen.has_value() && chosen->rule_index >= 0 && !canonical_witness) {
        if (static_cast<std::size_t>(chosen->rule_index) >= alg_->rules.size()) {
          throw std::logic_error("activate: chosen action names a nonexistent rule");
        }
        const Rule& rule = alg_->rules[static_cast<std::size_t>(chosen->rule_index)];
        bool admissible = false;
        for (Sym sym : alg_->symmetries()) {
          if (sym == chosen->sym) {
            admissible = true;
            break;
          }
        }
        if (!admissible) {
          throw std::logic_error("activate: chosen action's symmetry is not admissible");
        }
        const Snapshot snap = take_snapshot(config_, robot, alg_->phi);
        const std::optional<Dir> mapped_move =
            rule.move.has_value() ? std::optional<Dir>(apply(chosen->sym, *rule.move))
                                  : std::nullopt;
        if (!guard_matches(rule, snap, chosen->sym) || rule.new_color != chosen->new_color ||
            mapped_move != chosen->move) {
          throw std::logic_error("activate: chosen action's rule/sym witness is inconsistent");
        }
      }
      pending_[static_cast<std::size_t>(robot)] = decision;
      phase = Phase::Decided;
      return;
    }
    case Phase::Decided: {
      if (chosen.has_value()) throw std::logic_error("activate: choice only valid at Look");
      config_.set_color(robot, pending_[static_cast<std::size_t>(robot)].new_color);
      phase = Phase::Colored;
      if (tracker_) tracker_->refresh();
      return;
    }
    case Phase::Colored: {
      if (chosen.has_value()) throw std::logic_error("activate: choice only valid at Look");
      const Action& act = pending_[static_cast<std::size_t>(robot)];
      if (act.move.has_value()) {
        const std::optional<Vec> to =
            config_.topology().step(config_.robot(robot).pos, *act.move);
        if (!to) throw std::logic_error("AsyncEngine: robot would leave the grid");
        // *to came out of Topology::step, so the edge is already proven; the
        // stepped fast path skips move_robot's re-validation.
        config_.move_robot_stepped(robot, *to);
      }
      phase = Phase::Idle;
      if (tracker_) tracker_->refresh();
      return;
    }
  }
}

bool AsyncEngine::terminal() const { return effective_robots().empty(); }

}  // namespace lumi
