// Execution driver: runs an algorithm on a topology (plain grid, ring,
// torus, obstacle grid) under a scheduler, tracking node coverage,
// termination, statistics and (optionally) the full trace.  Full
// exploration means covering every *reachable* node — the topology's
// non-wall nodes — not the whole bounding box.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/compiled.hpp"
#include "src/sched/async_schedulers.hpp"
#include "src/sched/sync_schedulers.hpp"
#include "src/trace/trace.hpp"

namespace lumi {

namespace obs {
class Recorder;  // src/obs/recorder.hpp
}

/// Per-run knobs: the budget and verifier (result-bearing), the observers
/// (trace, recorder), and the dirty-tracking switch.
struct RunOptions {
  long max_steps = 1'000'000;        ///< instants (sync) or events (async)
  bool record_trace = false;
  /// FSYNC determinism check: fail if any robot ever has two distinct
  /// enabled behaviors (the paper's algorithms are deterministic).
  bool require_unique_actions = false;
  /// Drive the engines through the DirtyTracker: robots whose neighborhood
  /// is unchanged since the last instant reuse their cached match verdict.
  /// Results are identical either way (pinned by tests/test_incremental.cpp);
  /// off is the recompute-everything reference path.
  bool incremental = true;
  /// Optional flight recorder (src/obs/recorder.hpp): when non-null, the
  /// engines feed it per-instant structured events and the configuration
  /// entering each instant.  Strictly an observer — attaching one never
  /// changes control flow, results or stats (pinned by
  /// tests/test_obs_identity.cpp); null (the default) costs one pointer test
  /// per instant, paid inside every perfbench end-to-end number.
  obs::Recorder* recorder = nullptr;
};

struct RunStats {
  long instants = 0;       ///< sync instants or async phase events
  long activations = 0;    ///< robot cycles started
  long moves = 0;
  long color_changes = 0;  ///< cycles whose new color differs from the old
  /// Incremental-engine counters (zero on the recompute path): per-robot
  /// match verdicts served from the dirty-tracker cache vs. re-matched.
  /// Diagnostics only — campaign accumulators and checkpoints ignore them.
  long match_reused = 0;
  long match_recomputed = 0;
};

struct RunResult {
  bool terminated = false;
  bool explored_all = false;  ///< every reachable (non-wall) node visited
  RunStats stats;
  std::vector<bool> visited;  ///< per bounding-box node index
  std::string failure;        ///< nonempty on budget exhaustion / violations
  Trace trace;

  bool ok() const { return terminated && explored_all && failure.empty(); }
  int visited_count() const {
    int n = 0;
    for (bool v : visited) n += v ? 1 : 0;
    return n;
  }
};

/// Everything a run needs that depends only on the algorithm and the
/// topology: the compiled matcher tables and the validated initial
/// configuration.  A campaign builds one per batch and shares it across the
/// batch's seeds; runs start from a copy of `initial`.  Throws what
/// CompiledAlgorithm::get and Algorithm::initial_configuration throw.
struct CellPlan {
  CellPlan(Algorithm algorithm, Topology topology);

  Algorithm alg;
  Topology topo;
  std::shared_ptr<const CompiledAlgorithm> compiled;
  Configuration initial;
};

/// Runs under FSYNC/SSYNC semantics (full atomic cycles per instant).
RunResult run_sync(const CellPlan& plan, SyncScheduler& sched, const RunOptions& opts = {});
RunResult run_sync(const Algorithm& alg, const Topology& topo, SyncScheduler& sched,
                   const RunOptions& opts = {});

/// Runs under ASYNC semantics (interleaved Look/Compute/Move events).
RunResult run_async(const CellPlan& plan, AsyncScheduler& sched, const RunOptions& opts = {});
RunResult run_async(const Algorithm& alg, const Topology& topo, AsyncScheduler& sched,
                    const RunOptions& opts = {});

/// Final configuration of a recorded trace (requires record_trace).
const Configuration& final_configuration(const RunResult& result);

}  // namespace lumi
