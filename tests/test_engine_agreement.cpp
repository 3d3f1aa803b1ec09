// Engine agreement: every engine run is a path in the model checker's state
// graph.  Each run of every Table-1 entry under every compatible scheduler
// (random ones on seeds 1-3), on every grid from the entry's minimum up to
// 8x8, is recorded with a trace and an unbounded recorder and then walked
// through the checker's step relation (`Successors`): each step must be a
// successor of some checker state consistent with the run so far, in which
// the same robots acted and the same nodes and lights show.  The trace shows
// neither ASYNC phases nor pending decisions, so the walk keeps every
// consistent state.  The run must end in a state with no successor.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/model_checker.hpp"
#include "src/campaign/campaign.hpp"
#include "src/obs/recorder.hpp"

namespace lumi::campaign {
namespace {

constexpr int kMaxSide = 8;

using State = std::vector<RobotWord>;

CheckModel check_model(Synchrony synchrony) {
  switch (synchrony) {
    case Synchrony::Fsync: return CheckModel::Fsync;
    case Synchrony::Ssync: return CheckModel::Ssync;
    case Synchrony::Async: return CheckModel::Async;
  }
  throw std::invalid_argument("check_model: bad synchrony");
}

/// True when `state` shows `config`: every robot on the same node with the
/// same light.
bool shows(std::span<const RobotWord> state, const Configuration& config) {
  for (std::size_t i = 0; i < state.size(); ++i) {
    const Robot& r = config.robot(static_cast<int>(i));
    if (node_of(state[i]) != config.grid().index(r.pos) || color_of(state[i]) != r.color) {
      return false;
    }
  }
  return true;
}

/// The robots that acted at each step of the run, from the recorder's
/// events: a sync instant's events share its index, and every ASYNC event
/// is one step (a pick that finds its robot disabled records nothing).
std::vector<std::uint64_t> acted_per_step(const std::vector<obs::RecordedEvent>& events,
                                          bool sync) {
  std::vector<std::uint64_t> out;
  long instant = -1;
  for (const obs::RecordedEvent& e : events) {
    if (!sync || e.instant != instant) out.push_back(0);
    instant = e.instant;
    out.back() |= 1ULL << e.robot;
  }
  return out;
}

/// Walks one recorded run through the step relation; empty when it is a
/// maximal path of the checker's graph, else the first step that is not.
std::string walk(const CellPlan& plan, CheckModel model, const RunResult& run,
                 const obs::Recorder& rec) {
  const std::vector<TraceEntry>& trace = run.trace.entries();
  if (trace.size() != static_cast<std::size_t>(run.stats.instants) + 1) {
    return "trace has " + std::to_string(trace.size()) + " entries for " +
           std::to_string(run.stats.instants) + " instants";
  }
  const std::vector<std::uint64_t> acted = acted_per_step(rec.tail(), model != CheckModel::Async);
  if (acted.size() != static_cast<std::size_t>(run.stats.instants)) {
    return "recorder shows " + std::to_string(acted.size()) + " steps";
  }
  Successors successors(plan.alg, plan.topo, model);
  State initial;
  for (const Robot& r : trace.front().config.robots()) {
    initial.push_back(idle_robot(plan.topo.index(r.pos), r.color));
  }
  std::set<State> consistent = {initial};
  for (std::size_t step = 0; step < acted.size(); ++step) {
    std::set<State> next_consistent;
    for (const State& s : consistent) {
      successors.expand(s, [&](std::span<const RobotWord> next, std::uint64_t mask) {
        if (mask == acted[step] && shows(next, trace[step + 1].config)) {
          next_consistent.emplace(next.begin(), next.end());
        }
      });
    }
    if (next_consistent.empty()) return "step " + std::to_string(step);
    consistent = std::move(next_consistent);
  }
  for (const State& s : consistent) {
    if (successors.expand(s, [](std::span<const RobotWord>, std::uint64_t) {}) == 0) return "";
  }
  return "end: every consistent state has a successor";
}

/// Runs every job of every Table-1 entry whose scheduler exercises
/// `synchrony` and checks that each is a path of the checker's graph.
void expect_runs_are_paths(Synchrony synchrony) {
  Matrix matrix;
  matrix.sections = all_sections();
  matrix.rows = {1, kMaxSide, 1};
  matrix.cols = {1, kMaxSide, 1};
  for (const SchedKind kind : kAllSchedKinds) {
    if (sched_synchrony(kind) == synchrony) matrix.schedulers.push_back(kind);
  }
  matrix.seeds = {1, 2, 3};
  const Expansion expansion = expand(matrix);
  long steps = 0;
  for (const Job& job : expansion.jobs) {
    const Cell& cell = expansion.cells[job.cell];
    const CellPlan plan = plan_cell(cell);
    obs::Recorder rec({.capacity = std::numeric_limits<std::size_t>::max()});
    RunOptions opts;
    opts.record_trace = true;
    opts.recorder = &rec;
    const RunResult run = run_with_sched(plan, cell.sched, job.seed, opts);
    const std::string why = walk(plan, check_model(synchrony), run, rec);
    EXPECT_EQ(why, "") << cell.section << " " << cell.rows << "x" << cell.cols << " "
                       << to_string(cell.sched) << " seed " << job.seed;
    steps += run.stats.instants;
  }
  EXPECT_GT(steps, 0);
}

TEST(EngineAgreement, FsyncRunsArePathsOfTheChecker) {
  expect_runs_are_paths(Synchrony::Fsync);
}

TEST(EngineAgreement, SsyncRunsArePathsOfTheChecker) {
  expect_runs_are_paths(Synchrony::Ssync);
}

TEST(EngineAgreement, AsyncRunsArePathsOfTheChecker) {
  expect_runs_are_paths(Synchrony::Async);
}

}  // namespace
}  // namespace lumi::campaign
