// Measures campaign throughput (jobs/sec) single-threaded vs. all cores on a
// fixed matrix, plus the orchestration overheads (checkpoint serialization +
// atomic write, 7-way shard merge), a topology-family sweep (grid, torus,
// holes, obstacles) and the plain-grid Topology-abstraction overhead against
// a seed-grid replica.  Exits nonzero if the parallel run produces a
// different merged summary than the single-threaded one (the determinism
// contract), if the shard merge is not byte-identical to the direct run, if
// the plain-grid snapshot path costs more than 20% over the seed replica
// (a per-cell topology dispatch regression reads 2-3x; the budget leaves
// room for the fixed per-call dispatch the replica doesn't pay), if
// running with telemetry fully enabled (metrics registry + trace spans)
// costs more than 3% of jobs/s over the disabled default, or if arming
// anomaly capture (--record-anomalies) on an all-terminating matrix — where
// nothing ever records — costs more than 3% over a plain run.
//
// Usage: bench_campaign [--large] [--json PATH]
// --json writes the measured rates as machine-readable JSON (the campaign
// companion to BENCH_matching.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"
#include "src/campaign/checkpoint.hpp"
#include "src/campaign/orchestrate.hpp"
#include "src/campaign/shard.hpp"
#include "src/core/view.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace_event.hpp"
#include "src/topo/topology.hpp"
#include "src/trace/report.hpp"

namespace {

bool same_summary(const lumi::campaign::CampaignSummary& a,
                  const lumi::campaign::CampaignSummary& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (!(a.cells[i].cell == b.cells[i].cell)) return false;
    if (!(a.cells[i].acc == b.cells[i].acc)) return false;
  }
  return true;
}

/// Seed-replica world: the pre-topology Grid + Configuration data layout —
/// dimensions, a row-major occupancy array and a robot list.
struct SeedWorld {
  int rows = 0;
  int cols = 0;
  std::vector<lumi::ColorMultiset> occupancy;
  std::vector<lumi::Robot> robots;
};

/// The seed take_snapshot_into, replicated line for line: bounds check +
/// row-major occupancy lookup per kernel cell.  noinline so it sits behind a
/// call boundary exactly like the real take_snapshot_into (which lives in
/// another translation unit) — otherwise the comparison measures compiler
/// visibility, not abstraction cost.  `phi` is a runtime parameter exactly
/// as in the seed function (the measurement loop keeps it opaque): a
/// constant-phi replica would be specialized in a way the seed never was,
/// and the ratio would then charge the phi dispatch to the topology layer.
[[gnu::noinline]] void seed_take_snapshot_into(const SeedWorld& w, int robot, int phi,
                                               lumi::Snapshot& out) {
  using namespace lumi;
  const ViewKernel& kernel = ViewKernel::get(phi);
  const Robot& r = w.robots[static_cast<std::size_t>(robot)];
  out.origin = r.pos;
  out.self_color = r.color;
  out.phi = phi;
  const std::span<const Vec> offsets = kernel.offsets();
  std::uint16_t occupied = 0;
  std::uint16_t wall = 0;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const Vec v = r.pos + offsets[i];
    if (v.row >= 0 && v.row < w.rows && v.col >= 0 && v.col < w.cols) {
      out.cells[i] = CellContent{
          .wall = false,
          .robots = w.occupancy[static_cast<std::size_t>(v.row * w.cols + v.col)]};
      if (!out.cells[i].robots.empty()) occupied |= static_cast<std::uint16_t>(1u << i);
    } else {
      out.cells[i] = CellContent{.wall = true, .robots = {}};
      wall |= static_cast<std::uint16_t>(1u << i);
    }
  }
  out.planes = lumi::SnapshotPlanes{occupied, wall};
}

/// ns per snapshot through the Topology-backed path vs. the seed replica
/// above.  Both fill the same inline Snapshot over the same phi-2 kernel, so
/// the ratio isolates what the topology abstraction costs the plain-grid
/// hot path.  Min over several passes.
struct SnapshotOverhead {
  double topology_ns = 0.0;
  double reference_ns = 0.0;
  double ratio() const { return reference_ns > 0 ? topology_ns / reference_ns : 0.0; }
};

SnapshotOverhead measure_snapshot_overhead() {
  using namespace lumi;
  const Algorithm alg = algorithms::entry("4.2.1").make();  // phi = 2: the deep kernel
  const Grid grid(8, 8);
  const Configuration config = alg.initial_configuration(grid);

  SeedWorld world;
  world.rows = grid.rows();
  world.cols = grid.cols();
  world.occupancy.resize(static_cast<std::size_t>(grid.num_nodes()));
  world.robots.assign(config.robots().begin(), config.robots().end());
  for (const Robot& r : world.robots) {
    world.occupancy[static_cast<std::size_t>(r.pos.row * world.cols + r.pos.col)].add(r.color);
  }

  constexpr long kReps = 400'000;
  constexpr int kPasses = 5;
  const auto ns_per_rep = [](std::chrono::steady_clock::time_point start, long reps) {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
               .count() /
           static_cast<double>(reps);
  };

  SnapshotOverhead out;
  Snapshot snap;
  long sink = 0;
  // Opaque to the optimizer: the replica lives in this translation unit, and
  // a compile-time-constant phi would let the compiler specialize it — a
  // luxury the real take_snapshot_into (called across the library boundary)
  // never gets for its own runtime phi argument.
  volatile int seed_phi = 2;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < kReps; ++i) {
      take_snapshot_into(config, static_cast<int>(i & 1), 2, snap);
      sink += snap.cells[0].wall ? 1 : 0;
    }
    const double topo_ns = ns_per_rep(t0, kReps);
    if (pass == 0 || topo_ns < out.topology_ns) out.topology_ns = topo_ns;

    const auto t1 = std::chrono::steady_clock::now();
    for (long i = 0; i < kReps; ++i) {
      seed_take_snapshot_into(world, static_cast<int>(i & 1), seed_phi, snap);
      sink += snap.cells[0].wall ? 1 : 0;
    }
    const double ref_ns = ns_per_rep(t1, kReps);
    if (pass == 0 || ref_ns < out.reference_ns) out.reference_ns = ref_ns;
  }
  if (sink < 0) std::printf("impossible\n");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lumi::campaign;
  namespace obs = lumi::obs;

  Matrix matrix;
  matrix.sections = paper_sections();
  matrix.rows = {4, 8, 2};
  matrix.cols = {4, 8, 2};
  matrix.schedulers.assign(std::begin(kAllSchedKinds), std::end(kAllSchedKinds));
  matrix.seeds = {1, 2};
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--large") {
      matrix.rows = {4, 16, 4};
      matrix.cols = {4, 16, 4};
      matrix.seeds = {1, 2, 3, 4};
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: bench_campaign [--large] [--json PATH]\n");
      return 2;
    }
  }

  const Expansion expansion = expand(matrix);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("bench_campaign: %zu cells, %zu jobs, hardware_concurrency=%u\n",
              expansion.cells.size(), expansion.jobs.size(), hw);

  // Warm the shared compilation cache so neither timed pass pays the
  // one-time CompiledAlgorithm builds.
  run_campaign(expansion, 0);

  // The default sweep finishes in tens of milliseconds, so each
  // single-threaded mode takes the best of three passes to keep the
  // incremental-vs-recompute ratio out of timer-noise territory.
  const auto best_of_three = [](const Expansion& e) {
    CampaignSummary best = run_campaign(e, 1);
    for (int pass = 1; pass < 3; ++pass) {
      CampaignSummary again = run_campaign(e, 1);
      if (again.wall_seconds < best.wall_seconds) best = std::move(again);
    }
    return best;
  };

  // Recompute-everything baseline (the pre-incremental engine): same jobs,
  // dirty tracking off.  The summaries must be identical — the incremental
  // engine is a pure optimization.
  Expansion recompute_expansion = expansion;
  recompute_expansion.options.incremental = false;
  const CampaignSummary recompute = best_of_three(recompute_expansion);
  const double recompute_rate = static_cast<double>(recompute.jobs) / recompute.wall_seconds;
  std::printf("  threads=1 (recompute):   %.2fs  %8.1f jobs/s\n", recompute.wall_seconds,
              recompute_rate);

  const CampaignSummary single = best_of_three(expansion);
  const double single_rate = static_cast<double>(single.jobs) / single.wall_seconds;
  const double incremental_speedup = single_rate / recompute_rate;
  std::printf("  threads=1 (incremental): %.2fs  %8.1f jobs/s  (%.2fx over recompute)\n",
              single.wall_seconds, single_rate, incremental_speedup);

  if (!same_summary(single, recompute)) {
    std::printf("FAIL: incremental and recompute summaries differ\n");
    return 1;
  }
  std::printf("summaries identical with dirty tracking on and off: yes\n");

  const CampaignSummary parallel = run_campaign(expansion, 0);
  const double parallel_rate = static_cast<double>(parallel.jobs) / parallel.wall_seconds;
  std::printf("  threads=%-2u: %.2fs  %8.1f jobs/s\n", parallel.threads, parallel.wall_seconds,
              parallel_rate);
  std::printf("  speedup: %.2fx on %u threads\n", parallel_rate / single_rate, parallel.threads);

  if (!same_summary(single, parallel)) {
    std::printf("FAIL: single- and multi-threaded summaries differ\n");
    return 1;
  }
  std::printf("summaries identical across thread counts: yes\n");

  // --- orchestration overheads ----------------------------------------------
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  };

  // Checkpoint write: serialize + atomic-rename of the full final state,
  // i.e. the cost one periodic flush adds to a running campaign.
  const OrchestratorReport base = run_orchestrated(expansion, {});
  const std::string ckpt_path = "bench_campaign.ckpt";
  constexpr int kWriteIters = 20;
  const auto write_start = clock::now();
  for (int i = 0; i < kWriteIters; ++i) {
    if (!checkpoint_write(ckpt_path, base.checkpoint)) {
      std::printf("FAIL: cannot write %s\n", ckpt_path.c_str());
      return 1;
    }
  }
  const double checkpoint_write_ms = ms_since(write_start) / kWriteIters;
  std::remove(ckpt_path.c_str());
  std::printf("  checkpoint write: %.3f ms for %zu cells\n", checkpoint_write_ms,
              base.checkpoint.cells.size());

  // Shard merge: fold a 7-way sharding back into one summary, then verify the
  // orchestration contract end to end (byte-identical reports).
  constexpr unsigned kShards = 7;
  std::vector<Checkpoint> pieces;
  for (unsigned i = 0; i < kShards; ++i) {
    pieces.push_back(run_orchestrated(shard(expansion, {i, kShards}), {}).checkpoint);
  }
  const auto merge_start = clock::now();
  Checkpoint merged = pieces[0];
  for (unsigned i = 1; i < kShards; ++i) checkpoint_merge(merged, pieces[i]);
  const double shard_merge_ms = ms_since(merge_start);
  std::printf("  %u-way shard merge: %.3f ms\n", kShards, shard_merge_ms);
  if (lumi::campaign_csv(checkpoint_summary(merged)) != lumi::campaign_csv(single) ||
      lumi::campaign_json(checkpoint_summary(merged)) != lumi::campaign_json(single)) {
    std::printf("FAIL: merged shard reports differ from the single-process run\n");
    return 1;
  }
  std::printf("merged shard reports byte-identical to direct run: yes\n");

  // --- topology-family sweep ------------------------------------------------
  // One campaign per family over the same sections and dimensions.  Tori have
  // no border, so the paper algorithms never see a wall and run to the step
  // budget; the budget is kept small so the sweep measures throughput, not
  // patience.  Jobs/s across families tracks what walls, wraparound and the
  // connectivity-validated obstacle masks cost end to end.
  struct TopoRate {
    const char* name;
    const char* spec;
    double jobs_per_sec = 0.0;
    std::size_t jobs = 0;
  };
  TopoRate topo_rates[] = {{"grid", "grid"},
                           {"torus", "torus"},
                           {"holes", "holes"},
                           {"obstacles", "obstacles:15:1"}};
  for (TopoRate& t : topo_rates) {
    Matrix topo_matrix;
    topo_matrix.sections = {"4.2.1", "4.3.1"};
    topo_matrix.rows = {6, 8, 2};
    topo_matrix.cols = {6, 8, 2};
    topo_matrix.topologies = {t.spec};
    topo_matrix.schedulers.assign(std::begin(kAllSchedKinds), std::end(kAllSchedKinds));
    topo_matrix.seeds = {1, 2};
    topo_matrix.options.max_steps = 2'000;
    const CampaignSummary s = run_campaign(topo_matrix, 0);
    t.jobs = s.jobs;
    t.jobs_per_sec = s.wall_seconds > 0 ? static_cast<double>(s.jobs) / s.wall_seconds : 0.0;
    std::printf("  topology %-10s %8.1f jobs/s (%zu jobs)\n", t.name, t.jobs_per_sec, t.jobs);
  }

  // --- batched micro-runs ---------------------------------------------------
  // A 4x4 FSYNC micro-matrix with 64 replicas per cell: the regime batching
  // exists for, where per-job setup (algorithm construction, topology parse,
  // compile-cache lookup) rivals the runs themselves.  FSYNC expands to one
  // job per cell, so the replicas are added by hand — the scheduler ignores
  // the seed, making them genuine micro-run repeats.  Batched (automatic
  // sizing, one CellPlan per batch) vs the per-job dispatch baseline
  // (batch=1 — one task and one CellPlan per job), single thread, median of
  // nine paired passes; summaries must stay identical.
  Matrix micro;
  micro.sections = paper_sections();
  micro.rows = {4, 4, 1};
  micro.cols = {4, 4, 1};
  micro.schedulers = {SchedKind::Fsync};
  Expansion micro_expansion = expand(micro);
  {
    std::vector<Job> replicated;
    replicated.reserve(micro_expansion.jobs.size() * 64);
    for (const Job& job : micro_expansion.jobs) {
      for (unsigned s = 1; s <= 64; ++s) replicated.push_back({job.cell, s});
    }
    micro_expansion.jobs = std::move(replicated);
  }
  // Paired passes: each pass runs the per-job leg immediately followed by
  // the batched leg, so both see the same machine conditions (hosts switch
  // frequency regimes on a seconds scale; a pass pair takes milliseconds).
  // An attempt takes the median per-pass ratio: a pair that straddles a
  // regime flip lands at an extreme — in either direction — and the median
  // discards it, where a fastest-run-per-leg rule inherits the skew whenever
  // only one leg happens to sample the fast regime.  An attempt whose median
  // still misses the floor is re-measured (twice at most): the gate is a
  // regression detector, not a measurement — broken setup hoisting reads
  // ~1.0x and fails every attempt, while co-tenant interference depressing
  // one whole attempt does not survive a retry.
  struct MicroPass {
    CampaignSummary per_job;
    CampaignSummary batched;
    double ratio = 0.0;  // batched jobs/s over per-job jobs/s (same job count)
  };
  MicroPass micro_median;  // best attempt's median pair
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::vector<MicroPass> micro_passes(9);
    for (MicroPass& p : micro_passes) {
      p.per_job = run_campaign(micro_expansion, 1, 1);
      p.batched = run_campaign(micro_expansion, 1, 0);
      p.ratio = p.per_job.wall_seconds / p.batched.wall_seconds;
    }
    std::sort(micro_passes.begin(), micro_passes.end(),
              [](const MicroPass& x, const MicroPass& y) { return x.ratio < y.ratio; });
    MicroPass& median = micro_passes[micro_passes.size() / 2];
    if (median.ratio > micro_median.ratio) micro_median = std::move(median);
    if (micro_median.ratio >= 1.5) break;
    std::printf("  micro median %.2fx below the floor; re-measuring\n", micro_median.ratio);
  }
  const CampaignSummary& micro_per_job = micro_median.per_job;
  const CampaignSummary& micro_batched = micro_median.batched;
  const double micro_per_job_rate =
      static_cast<double>(micro_per_job.jobs) / micro_per_job.wall_seconds;
  const double micro_batched_rate =
      static_cast<double>(micro_batched.jobs) / micro_batched.wall_seconds;
  const double batch_speedup = micro_median.ratio;
  std::printf("  micro 4x4 fsync per-job: %8.1f jobs/s\n", micro_per_job_rate);
  std::printf("  micro 4x4 fsync batched: %8.1f jobs/s  (%.2fx)\n", micro_batched_rate,
              batch_speedup);
  if (!same_summary(micro_per_job, micro_batched)) {
    std::printf("FAIL: batched and per-job micro summaries differ\n");
    return 1;
  }
  std::printf("batched and per-job summaries identical: yes\n");

  // --- plain-grid abstraction overhead --------------------------------------
  const SnapshotOverhead overhead = measure_snapshot_overhead();
  std::printf("  snapshot: topology %.1f ns vs seed replica %.1f ns (%.3fx)\n",
              overhead.topology_ns, overhead.reference_ns, overhead.ratio());

  // --- telemetry overhead and observed summaries ----------------------------
  // The metrics registry and trace spans are compiled into the hot paths
  // (disabled = a relaxed load plus branch per record, a thread_local null
  // check per span), so leaving them ENABLED must stay near-free too.  Same
  // paired methodology as the batch gate: each pass runs the disabled leg
  // immediately followed by the fully-enabled leg (registry on + a trace
  // writer installed, buffering in memory) on the micro matrix; an attempt
  // takes the median per-pass ratio, and an attempt below the floor is
  // re-measured (twice at most).  The floor pins telemetry-enabled jobs/s
  // within 3% of disabled.  Summaries must stay identical — telemetry
  // observes results, never feeds them (the obs-isolation lint fences the
  // report/checkpoint serializers themselves).
  obs::Registry& registry = obs::Registry::global();
  double telemetry_ratio = 0.0;
  bool telemetry_summaries_match = true;
  for (int attempt = 0; attempt < 3 && telemetry_ratio < 0.97; ++attempt) {
    std::vector<double> ratios;
    ratios.reserve(9);
    for (int pass = 0; pass < 9; ++pass) {
      registry.set_enabled(false);
      const CampaignSummary off = run_campaign(micro_expansion, 1, 0);
      registry.reset();
      registry.set_enabled(true);
      {
        lumi::obs::TraceWriter trace("bench_campaign.trace.json");  // never flushed
        lumi::obs::TraceWriter::install(&trace);
        const CampaignSummary on = run_campaign(micro_expansion, 1, 0);
        lumi::obs::TraceWriter::install(nullptr);
        telemetry_summaries_match = telemetry_summaries_match && same_summary(off, on);
        ratios.push_back(off.wall_seconds / on.wall_seconds);
      }
      registry.set_enabled(false);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[ratios.size() / 2];
    if (median > telemetry_ratio) telemetry_ratio = median;
    if (telemetry_ratio < 0.97) {
      std::printf("  telemetry median %.3fx below the floor; re-measuring\n", telemetry_ratio);
    }
  }
  registry.reset();
  std::printf("  telemetry-enabled micro throughput: %.3fx of disabled\n", telemetry_ratio);
  if (!telemetry_summaries_match) {
    std::printf("FAIL: summaries differ with telemetry on vs off\n");
    return 1;
  }
  std::printf("summaries identical with telemetry on and off: yes\n");

  // --- flight-recorder off-path overhead ------------------------------------
  // The recorder hooks in the engines are a null-pointer test per instant
  // when no recorder is attached; --record-anomalies additionally checks each
  // finished job's failure string in the campaign sink.  Both must stay
  // near-free for the common case: every job of the micro matrix terminates,
  // so a capture-armed pass records nothing and measures pure hook cost.
  // Same paired-median methodology as the gates above.
  double recorder_ratio = 0.0;
  bool recorder_summaries_match = true;
  const AnomalyCapture bench_capture{"bench_campaign.recordings", 8};
  for (int attempt = 0; attempt < 3 && recorder_ratio < 0.97; ++attempt) {
    std::vector<double> ratios;
    ratios.reserve(9);
    for (int pass = 0; pass < 9; ++pass) {
      const CampaignSummary off = run_campaign(micro_expansion, 1, 0);
      const CampaignSummary armed = run_campaign(micro_expansion, 1, 0, &bench_capture);
      recorder_summaries_match = recorder_summaries_match && same_summary(off, armed);
      ratios.push_back(off.wall_seconds / armed.wall_seconds);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[ratios.size() / 2];
    if (median > recorder_ratio) recorder_ratio = median;
    if (recorder_ratio < 0.97) {
      std::printf("  recorder median %.3fx below the floor; re-measuring\n", recorder_ratio);
    }
  }
  std::printf("  capture-armed micro throughput: %.3fx of plain\n", recorder_ratio);
  if (!recorder_summaries_match) {
    std::printf("FAIL: summaries differ with anomaly capture armed vs off\n");
    return 1;
  }
  std::printf("summaries identical with anomaly capture armed and off: yes\n");

  // Observed telemetry for the JSON artifact: one parallel campaign for the
  // work-stealing picture, one orchestrated run at the fastest flush
  // interval for checkpoint-flush latency as the flusher actually sees it.
  registry.set_enabled(true);
  run_campaign(expansion, 0);
  const obs::MetricsSnapshot pool_snap = registry.snapshot();
  const long long pool_executed = pool_snap.counter_prefix_sum("pool.worker.", ".executed");
  const long long pool_stolen = pool_snap.counter_prefix_sum("pool.worker.", ".stolen");
  const double pool_steal_share =
      pool_executed > 0 ? static_cast<double>(pool_stolen) / static_cast<double>(pool_executed)
                        : 0.0;
  registry.reset();

  OrchestratorOptions obs_opts;
  obs_opts.checkpoint_path = "bench_campaign.obs.ckpt";
  obs_opts.flush_seconds = 0.01;  // the flusher's clamp floor: flush eagerly
  run_orchestrated(expansion, obs_opts);
  std::remove(obs_opts.checkpoint_path.c_str());
  const obs::MetricsSnapshot flush_snap = registry.snapshot();
  const long long flush_count = flush_snap.counter_or("orchestrate.checkpoint_flushes");
  long long flush_ms_sum = 0;
  for (const obs::HistogramValue& h : flush_snap.histograms) {
    if (h.name == "orchestrate.flush_ms") flush_ms_sum = h.sum;
  }
  const double flush_ms_mean =
      flush_count > 0 ? static_cast<double>(flush_ms_sum) / static_cast<double>(flush_count)
                      : 0.0;
  registry.set_enabled(false);
  registry.reset();
  std::printf("  pool steals: %lld of %lld tasks (%.1f%%)\n", pool_stolen, pool_executed,
              100.0 * pool_steal_share);
  std::printf("  checkpoint flushes: %lld, mean %.1f ms\n", flush_count, flush_ms_mean);

  if (!json_path.empty()) {
    char json[3072];
    std::snprintf(json, sizeof(json),
                  "{\n"
                  "  \"jobs\": %zu,\n"
                  "  \"threads\": %u,\n"
                  "  \"micro_per_job_jobs_per_sec\": %.1f,\n"
                  "  \"micro_batched_jobs_per_sec\": %.1f,\n"
                  "  \"batch_speedup\": %.2f,\n"
                  "  \"recompute_jobs_per_sec\": %.1f,\n"
                  "  \"single_jobs_per_sec\": %.1f,\n"
                  "  \"incremental_speedup\": %.2f,\n"
                  "  \"parallel_jobs_per_sec\": %.1f,\n"
                  "  \"parallel_speedup\": %.2f,\n"
                  "  \"checkpoint_cells\": %zu,\n"
                  "  \"checkpoint_write_ms\": %.3f,\n"
                  "  \"shard_merge_ways\": %u,\n"
                  "  \"shard_merge_ms\": %.3f,\n"
                  "  \"topo_grid_jobs_per_sec\": %.1f,\n"
                  "  \"topo_torus_jobs_per_sec\": %.1f,\n"
                  "  \"topo_holes_jobs_per_sec\": %.1f,\n"
                  "  \"topo_obstacles_jobs_per_sec\": %.1f,\n"
                  "  \"grid_topology_snapshot_ns\": %.1f,\n"
                  "  \"grid_reference_snapshot_ns\": %.1f,\n"
                  "  \"grid_topology_overhead\": %.3f,\n"
                  "  \"telemetry_enabled_ratio\": %.3f,\n"
                  "  \"recorder_off_ratio\": %.3f,\n"
                  "  \"pool_tasks_executed\": %lld,\n"
                  "  \"pool_tasks_stolen\": %lld,\n"
                  "  \"pool_steal_share\": %.3f,\n"
                  "  \"checkpoint_flush_count\": %lld,\n"
                  "  \"checkpoint_flush_ms_mean\": %.3f\n"
                  "}\n",
                  parallel.jobs, parallel.threads, micro_per_job_rate, micro_batched_rate,
                  batch_speedup, recompute_rate, single_rate,
                  incremental_speedup, parallel_rate, parallel_rate / single_rate,
                  base.checkpoint.cells.size(), checkpoint_write_ms, kShards, shard_merge_ms,
                  topo_rates[0].jobs_per_sec, topo_rates[1].jobs_per_sec,
                  topo_rates[2].jobs_per_sec, topo_rates[3].jobs_per_sec,
                  overhead.topology_ns, overhead.reference_ns, overhead.ratio(),
                  telemetry_ratio, recorder_ratio, pool_executed, pool_stolen, pool_steal_share,
                  flush_count, flush_ms_mean);
    if (!lumi::write_text_file(json_path, json)) {
      std::printf("FAIL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Gate last, after the JSON artifact exists for diagnosis.
  if (batch_speedup < 1.5) {
    std::printf("FAIL: batched 4x4 FSYNC micro-runs below the 1.5x jobs/s floor over the "
                "per-job baseline (%.2fx)\n",
                batch_speedup);
    return 1;
  }
  std::printf("batched micro-run throughput above the 1.5x floor: yes\n");
  // Budget history: the gate shipped at 1.05x when the snapshot fill took
  // ~20ns.  The phi-specialized fills cut that to ~15ns, which shrank the
  // denominator under the fixed per-call dispatch the library pays and the
  // single-purpose replica doesn't (plain/phi branch, runtime-phi kernel
  // lookup: ~1.5-2ns, now ~10% of a snapshot instead of ~7%).  1.2x keeps
  // catching what the gate exists for — a reintroduced per-CELL topology
  // dispatch reads 2-3x — without failing on the fixed per-call overhead
  // that faster fills can only magnify.
  if (overhead.ratio() > 1.2) {
    std::printf("FAIL: plain-grid Topology snapshot path exceeds the 20%% overhead budget "
                "(%.3fx over the seed replica)\n",
                overhead.ratio());
    return 1;
  }
  std::printf("plain-grid Topology overhead within the 20%% budget: yes\n");
  if (telemetry_ratio < 0.97) {
    std::printf("FAIL: telemetry-enabled micro throughput below 97%% of disabled (%.3fx)\n",
                telemetry_ratio);
    return 1;
  }
  std::printf("telemetry-enabled throughput within the 3%% budget: yes\n");
  if (recorder_ratio < 0.97) {
    std::printf("FAIL: capture-armed micro throughput below 97%% of plain (%.3fx)\n",
                recorder_ratio);
    return 1;
  }
  std::printf("recorder off-path overhead within the 3%% budget: yes\n");
  return 0;
}
