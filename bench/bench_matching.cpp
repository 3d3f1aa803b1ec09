// Hot-path benchmark: guard matching (naive sparse scan vs. compiled dense
// tables) and snapshotting over every Table-1 algorithm, plus a small
// campaign for end-to-end jobs/sec and an incremental-vs-recompute engine
// comparison (single-threaded, with verdict reuse counters).  Emits
// machine-readable BENCH_matching.json so the perf trajectory is tracked
// across PRs, and exits nonzero if the compiled matcher is less than 2x the
// naive one.  With --incremental it additionally fails below a 1.3x jobs/s
// floor of the dirty-tracking engine over the recompute-everything baseline
// (the acceptance floor for the incremental optimization).
//
// Usage: bench_matching [--incremental] [output.json]
// (default output: BENCH_matching.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"
#include "src/core/matching.hpp"
#include "src/trace/report.hpp"

namespace {

using namespace lumi;

struct Workload {
  Algorithm alg;
  std::shared_ptr<const CompiledAlgorithm> compiled;
  Configuration config;
  std::vector<Snapshot> snapshots;  ///< one per robot, pre-taken
};

std::vector<Workload> build_workloads() {
  std::vector<Workload> out;
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    Algorithm alg = e.make();
    const Grid grid(alg.min_rows + 2, alg.min_cols + 2);
    Configuration config = alg.initial_configuration(grid);
    Workload w{std::move(alg), nullptr, std::move(config), {}};
    w.compiled = CompiledAlgorithm::get(w.alg);
    for (int r = 0; r < w.config.num_robots(); ++r) {
      w.snapshots.push_back(take_snapshot(w.config, r, w.alg.phi));
    }
    out.push_back(std::move(w));
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// ns per enabled_actions evaluation over all workloads and robots.
template <typename MatchFn>
double measure_ns_per_match(const std::vector<Workload>& workloads, long iterations,
                            MatchFn&& match) {
  long matches = 0;
  long sink = 0;  // data dependency so the calls cannot be optimized away
  const auto start = std::chrono::steady_clock::now();
  for (long it = 0; it < iterations; ++it) {
    for (const Workload& w : workloads) {
      for (const Snapshot& snap : w.snapshots) {
        sink += match(w, snap);
        matches += 1;
      }
    }
  }
  const double elapsed = seconds_since(start);
  if (sink < 0) std::printf("impossible\n");
  return elapsed * 1e9 / static_cast<double>(matches);
}

/// ns per whole guard-plane group sweep (every self-color lane block of
/// every workload snapshot) through `mask_fn` — the prefilter's share of a
/// match, isolated from the dense row walks it guards.
template <typename MaskFn>
double measure_ns_per_guard_sweep(const std::vector<Workload>& workloads, long iterations,
                                  MaskFn&& mask_fn) {
  long sweeps = 0;
  long sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (long it = 0; it < iterations; ++it) {
    for (const Workload& w : workloads) {
      for (const Snapshot& snap : w.snapshots) {
        const SnapshotPlanes planes = snapshot_planes(snap, w.compiled->kernel_size());
        const GuardGroup& group = w.compiled->guard_group(snap.self_color);
        for (std::size_t base = 0; base < group.lanes; base += kGuardLaneBlock) {
          sink += static_cast<long>(mask_fn(group, planes, base));
        }
        sweeps += 1;
      }
    }
  }
  const double elapsed = seconds_since(start);
  if (sink < 0) std::printf("impossible\n");
  return elapsed * 1e9 / static_cast<double>(sweeps);
}

/// Single-threaded sweep of every expansion job; returns jobs/s plus the
/// summed dirty-tracker counters (zero when `incremental` is off).
struct EngineMeasure {
  double jobs_per_sec = 0.0;
  long reused = 0;
  long recomputed = 0;
};

EngineMeasure measure_engine(const campaign::Expansion& expansion, bool incremental) {
  RunOptions options = expansion.options;
  options.incremental = incremental;
  EngineMeasure out;
  const auto start = std::chrono::steady_clock::now();
  for (const campaign::Job& job : expansion.jobs) {
    const RunResult r = campaign::run_cell(expansion.cells[job.cell], job.seed, options);
    out.reused += r.stats.match_reused;
    out.recomputed += r.stats.match_recomputed;
  }
  out.jobs_per_sec = static_cast<double>(expansion.jobs.size()) / seconds_since(start);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate_incremental = false;
  std::string out_path = "BENCH_matching.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--incremental") {
      gate_incremental = true;
    } else if (arg.rfind("--", 0) == 0) {
      // A typoed flag must not be mistaken for the output path: that would
      // silently skip the CI perf gate.
      std::printf("usage: bench_matching [--incremental] [output.json]\n");
      return 2;
    } else {
      out_path = arg;
    }
  }
  const std::vector<Workload> workloads = build_workloads();
  const long iterations = 4000;

  const double naive_ns = measure_ns_per_match(
      workloads, iterations, [](const Workload& w, const Snapshot& snap) {
        return static_cast<long>(naive_enabled_actions(w.alg, snap).size());
      });
  const double compiled_ns = measure_ns_per_match(
      workloads, iterations, [](const Workload& w, const Snapshot& snap) {
        return static_cast<long>(enabled_actions(*w.compiled, snap).size());
      });
  const double first_enabled_ns = measure_ns_per_match(
      workloads, iterations, [](const Workload& w, const Snapshot& snap) {
        return first_enabled(*w.compiled, snap).has_value() ? 1L : 0L;
      });
  const double speedup = naive_ns / compiled_ns;

  // Guard-plane prefilter: scalar reference vs the build/CPU-selected kernel
  // (AVX2 when compiled in and supported; otherwise the two coincide).
  const long guard_iterations = iterations * 8;
  const double guard_scalar_ns =
      measure_ns_per_guard_sweep(workloads, guard_iterations, guard_pass_mask_scalar);
  const double guard_dispatch_ns =
      measure_ns_per_guard_sweep(workloads, guard_iterations, guard_pass_mask);
  const bool guard_simd = guard_simd_available();

  // Snapshot cost (phi = 2 dominates real campaigns).
  const Workload& snap_load = workloads.front();
  long snap_sink = 0;
  const long snapshot_reps = 2'000'000;
  const auto snap_start = std::chrono::steady_clock::now();
  for (long i = 0; i < snapshot_reps; ++i) {
    snap_sink += take_snapshot(snap_load.config, 0, 2).cells[0].wall ? 1 : 0;
  }
  const double snapshot_ns = seconds_since(snap_start) * 1e9 / snapshot_reps;
  if (snap_sink < 0) std::printf("impossible\n");

  // End-to-end: a small campaign on all cores.
  campaign::Matrix matrix;
  matrix.sections = campaign::paper_sections();
  matrix.rows = {4, 6, 2};
  matrix.cols = {4, 6, 2};
  matrix.schedulers.assign(std::begin(campaign::kAllSchedKinds),
                           std::end(campaign::kAllSchedKinds));
  matrix.seeds = {1, 2};
  const campaign::CampaignSummary summary = campaign::run_campaign(matrix, 0);
  const double jobs_per_sec = static_cast<double>(summary.jobs) / summary.wall_seconds;

  // Incremental engine vs. recompute-everything baseline, single-threaded so
  // the ratio is not polluted by scheduling noise.  Larger grids than the
  // end-to-end campaign above: dirty tracking pays off in the long quiescent
  // phases of big-grid exploration, and the bigger workload keeps the
  // measured ratio out of timer-noise territory.  Best of two passes per
  // mode (the first also warms the compilation cache).
  campaign::Matrix inc_matrix = matrix;
  inc_matrix.rows = {6, 12, 3};
  inc_matrix.cols = {6, 12, 3};
  const campaign::Expansion expansion = campaign::expand(inc_matrix);
  const auto best_of_two = [&expansion](bool incremental) {
    EngineMeasure best = measure_engine(expansion, incremental);
    const EngineMeasure again = measure_engine(expansion, incremental);
    if (again.jobs_per_sec > best.jobs_per_sec) best.jobs_per_sec = again.jobs_per_sec;
    return best;
  };
  const EngineMeasure recompute = best_of_two(/*incremental=*/false);
  const EngineMeasure incremental = best_of_two(/*incremental=*/true);
  const double incremental_speedup = incremental.jobs_per_sec / recompute.jobs_per_sec;
  const double reuse_fraction =
      incremental.reused + incremental.recomputed == 0
          ? 0.0
          : static_cast<double>(incremental.reused) /
                static_cast<double>(incremental.reused + incremental.recomputed);

  std::printf("bench_matching (%zu algorithms)\n", workloads.size());
  std::printf("  naive:         %8.1f ns/match\n", naive_ns);
  std::printf("  compiled:      %8.1f ns/match  (%.2fx)\n", compiled_ns, speedup);
  std::printf("  first_enabled: %8.1f ns/match\n", first_enabled_ns);
  std::printf("  guard sweep:   %8.1f ns scalar, %8.1f ns dispatched (simd %s)\n",
              guard_scalar_ns, guard_dispatch_ns, guard_simd ? "on" : "off");
  std::printf("  snapshot:      %8.1f ns (phi=2)\n", snapshot_ns);
  std::printf("  campaign:      %8.1f jobs/s (%zu jobs, %u threads)\n", jobs_per_sec,
              summary.jobs, summary.threads);
  std::printf("  recompute:     %8.1f jobs/s (1 thread)\n", recompute.jobs_per_sec);
  std::printf("  incremental:   %8.1f jobs/s (1 thread, %.2fx, %.1f%% verdicts reused)\n",
              incremental.jobs_per_sec, incremental_speedup, 100.0 * reuse_fraction);

  char json[2048];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"naive_ns_per_match\": %.1f,\n"
                "  \"compiled_ns_per_match\": %.1f,\n"
                "  \"first_enabled_ns_per_match\": %.1f,\n"
                "  \"speedup\": %.2f,\n"
                "  \"guard_scalar_ns_per_sweep\": %.1f,\n"
                "  \"guard_dispatch_ns_per_sweep\": %.1f,\n"
                "  \"guard_simd_active\": %s,\n"
                "  \"snapshot_ns\": %.1f,\n"
                "  \"campaign_jobs\": %zu,\n"
                "  \"campaign_threads\": %u,\n"
                "  \"campaign_jobs_per_sec\": %.1f,\n"
                "  \"recompute_jobs_per_sec\": %.1f,\n"
                "  \"incremental_jobs_per_sec\": %.1f,\n"
                "  \"incremental_speedup\": %.2f,\n"
                "  \"incremental_verdicts_reused\": %ld,\n"
                "  \"incremental_verdicts_recomputed\": %ld,\n"
                "  \"incremental_reuse_fraction\": %.4f\n"
                "}\n",
                naive_ns, compiled_ns, first_enabled_ns, speedup, guard_scalar_ns,
                guard_dispatch_ns, guard_simd ? "true" : "false", snapshot_ns, summary.jobs,
                summary.threads, jobs_per_sec, recompute.jobs_per_sec,
                incremental.jobs_per_sec, incremental_speedup, incremental.reused,
                incremental.recomputed, reuse_fraction);
  if (!write_text_file(out_path, json)) {
    std::printf("FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (speedup < 2.0) {
    std::printf("FAIL: compiled matcher below the 2x acceptance floor\n");
    return 1;
  }
  if (gate_incremental && incremental_speedup < 1.3) {
    std::printf("FAIL: incremental engine below the 1.3x jobs/s floor over the compiled "
                "recompute baseline\n");
    return 1;
  }
  return 0;
}
