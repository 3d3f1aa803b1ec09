#include "src/engine/runner.hpp"

#include <optional>

#include "src/core/incremental.hpp"
#include "src/obs/recorder.hpp"

namespace lumi {

namespace {

void mark_visited(std::vector<bool>& visited, const Topology& topo, const Configuration& config) {
  for (const Robot& r : config.robots()) {
    visited[static_cast<std::size_t>(topo.index(r.pos))] = true;
  }
}

/// Full exploration covers every reachable node; wall cells of the bounding
/// box are never visited and never required.  Robots only ever stand on real
/// nodes, so comparing counts is exact.
bool all_explored(const std::vector<bool>& visited, const Topology& topo) {
  int n = 0;
  for (bool v : visited) n += v ? 1 : 0;
  return n == topo.reachable_nodes();
}

std::string describe(const Algorithm& alg, const RobotAction& ra) {
  const Rule& rule = alg.rules.at(static_cast<std::size_t>(ra.action.rule_index));
  std::string note = rule.label + " by robot " + std::to_string(ra.robot);
  if (ra.action.move.has_value()) note += " move " + to_string(*ra.action.move);
  if (rule.new_color != rule.self) note += " color->" + to_string(rule.new_color);
  return note;
}

}  // namespace

CellPlan::CellPlan(Algorithm algorithm, Topology topology)
    : alg(std::move(algorithm)),
      topo(std::move(topology)),
      compiled(CompiledAlgorithm::get(alg)),
      initial(alg.initial_configuration(topo)) {}

RunResult run_sync(const Algorithm& alg, const Topology& topo, SyncScheduler& sched,
                   const RunOptions& opts) {
  return run_sync(CellPlan(alg, topo), sched, opts);
}

RunResult run_sync(const CellPlan& plan, SyncScheduler& sched, const RunOptions& opts) {
  const Algorithm& alg = plan.alg;
  const Topology& topo = plan.topo;
  const CompiledAlgorithm& compiled = *plan.compiled;
  Configuration config = plan.initial;
  // With dirty tracking, each instant re-matches only the robots whose view
  // covers a cell the previous instant changed; everyone else keeps the
  // cached verdict.  `tracker` outlives the loop so verdicts carry across
  // instants.  (Declared after `config`: it holds a pointer into it.)
  std::optional<DirtyTracker> tracker;
  if (opts.incremental) tracker.emplace(plan.compiled, config);
  std::vector<std::vector<Action>> scratch;
  const auto copy_counters = [&](RunResult& r) {
    if (!tracker) return;
    r.stats.match_reused = tracker->counters().reused;
    r.stats.match_recomputed = tracker->counters().recomputed;
  };
  RunResult result;
  result.visited.assign(static_cast<std::size_t>(topo.num_nodes()), false);
  mark_visited(result.visited, topo, config);
  if (opts.record_trace) result.trace.push(config, "initial");
  if (opts.recorder != nullptr) opts.recorder->begin_run(config);

  std::vector<RobotAction> selected;  // one selection buffer reused across instants
  for (long step = 0; step < opts.max_steps; ++step) {
    const std::vector<std::vector<Action>>& enabled = [&]() -> const auto& {
      if (tracker) {
        tracker->refresh();
        return tracker->all_actions();
      }
      scratch = all_enabled_actions(compiled, config);
      return scratch;
    }();
    if (opts.require_unique_actions) {
      for (const auto& actions : enabled) {
        if (actions.size() > 1) {
          result.failure = "robot has multiple distinct enabled behaviors at instant " +
                           std::to_string(step) + " in " + config.to_string();
          copy_counters(result);
          return result;
        }
      }
    }
    // Termination is detected from the selection: the scheduler contract
    // (sync_schedulers.hpp) returns empty exactly when no robot is enabled,
    // so the hot loop carries no per-instant any-enabled scan — that scan
    // was a measurable share of a whole micro-run.  The scan below runs once
    // per run, to tell a terminal configuration from a scheduler bug.
    sched.select(enabled, selected);
    if (selected.empty()) {
      bool any_enabled = false;
      for (const auto& actions : enabled) any_enabled = any_enabled || !actions.empty();
      if (!any_enabled) {
        result.terminated = true;
        result.explored_all = all_explored(result.visited, topo);
        copy_counters(result);
        return result;
      }
      result.failure = "scheduler returned an empty selection";
      copy_counters(result);
      return result;
    }
    if (opts.recorder != nullptr) opts.recorder->record_sync_instant(step, config, selected);
    std::string note;
    for (const RobotAction& ra : selected) {
      result.stats.activations += 1;
      if (ra.action.move.has_value()) result.stats.moves += 1;
      if (ra.action.new_color != config.robot(ra.robot).color) result.stats.color_changes += 1;
      // Notes only exist to annotate recorded traces; skip the string work
      // (significant at micro-run scale) when nothing records them.
      if (opts.record_trace) {
        if (!note.empty()) note += "; ";
        note += describe(alg, ra);
      }
    }
    apply_sync_step(config, selected);
    result.stats.instants += 1;
    // Coverage only grows where a robot landed; the full-configuration sweep
    // at entry marked the starting nodes, so per instant it suffices to mark
    // the movers' new positions.
    for (const RobotAction& ra : selected) {
      if (ra.action.move.has_value()) {
        result.visited[static_cast<std::size_t>(topo.index(config.robot(ra.robot).pos))] = true;
      }
    }
    if (opts.record_trace) result.trace.push(config, note);
    if (opts.recorder != nullptr) opts.recorder->record_configuration(step + 1, config);
  }
  result.failure = "step budget exhausted (" + std::to_string(opts.max_steps) + " instants)";
  copy_counters(result);
  return result;
}

RunResult run_async(const Algorithm& alg, const Topology& topo, AsyncScheduler& sched,
                    const RunOptions& opts) {
  return run_async(CellPlan(alg, topo), sched, opts);
}

RunResult run_async(const CellPlan& plan, AsyncScheduler& sched, const RunOptions& opts) {
  const Algorithm& alg = plan.alg;
  const Topology& topo = plan.topo;
  AsyncEngine engine(alg, plan.initial, opts.incremental, plan.compiled);
  RunResult result;
  result.visited.assign(static_cast<std::size_t>(topo.num_nodes()), false);
  mark_visited(result.visited, topo, engine.config());
  if (opts.record_trace) result.trace.push(engine.config(), "initial");
  if (opts.recorder != nullptr) opts.recorder->begin_run(engine.config());
  const auto copy_counters = [&engine](RunResult& r) {
    r.stats.match_reused = engine.match_counters().reused;
    r.stats.match_recomputed = engine.match_counters().recomputed;
  };

  for (long event = 0; event < opts.max_steps; ++event) {
    const std::vector<int> effective = engine.effective_robots();
    if (effective.empty()) {
      result.terminated = true;
      result.explored_all = all_explored(result.visited, topo);
      copy_counters(result);
      return result;
    }
    const int robot = sched.pick_robot(engine, effective);
    const Phase before = engine.phase(robot);
    std::string note;
    if (before == Phase::Idle) {
      const std::vector<Action> choices = engine.look_choices(robot);
      if (choices.empty()) {
        // The scheduler picked a robot that became disabled; vacuous cycle.
        continue;
      }
      Action decision = choices.size() == 1 ? choices.front()
                                            : sched.pick_action(engine, robot, choices);
      result.stats.activations += 1;
      if (decision.new_color != engine.config().robot(robot).color) {
        result.stats.color_changes += 1;
      }
      if (decision.move.has_value()) result.stats.moves += 1;
      // Trace notes are only consumed by recorded traces; skip the string
      // work (significant at micro-run scale) when nothing records them.
      if (opts.record_trace) note = "Look: " + describe(alg, RobotAction{robot, decision});
      if (opts.recorder != nullptr) {
        opts.recorder->record_async_event(event, obs::EventKind::Look, robot,
                                          engine.config().robot(robot).color, &decision);
      }
      engine.activate(robot, decision);
    } else {
      if (opts.record_trace) {
        note = (before == Phase::Decided ? "Compute-end: robot " : "Move: robot ") +
               std::to_string(robot);
      }
      if (opts.recorder != nullptr) {
        opts.recorder->record_async_event(
            event, before == Phase::Decided ? obs::EventKind::ComputeEnd : obs::EventKind::Move,
            robot, engine.config().robot(robot).color, nullptr);
      }
      engine.activate(robot);
    }
    result.stats.instants += 1;
    // Only the activated robot can have changed position this event; the
    // full sweep before the loop covered everyone's starting node.
    result.visited[static_cast<std::size_t>(topo.index(engine.config().robot(robot).pos))] =
        true;
    if (opts.record_trace) result.trace.push(engine.config(), note);
    if (opts.recorder != nullptr) opts.recorder->record_configuration(event + 1, engine.config());
  }
  result.failure = "event budget exhausted (" + std::to_string(opts.max_steps) + " events)";
  copy_counters(result);
  return result;
}

}  // namespace lumi
