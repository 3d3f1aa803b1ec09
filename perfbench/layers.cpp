// The traced run: per-layer metrics, timed from outside the library.
//
// Every span below wraps a call into one layer (campaign, core, engine,
// analysis, obs); nothing inside src/ is instrumented beyond the counters
// it already has, which are read from the obs registry around traced
// passes.  The registry is enabled only for those passes, so the other legs
// measure the same code as the end-to-end run.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/workloads.hpp"
#include "src/analysis/rule_analysis.hpp"
#include "src/core/compiled.hpp"
#include "src/core/matching.hpp"
#include "src/core/view.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {

namespace {

using namespace lumi::campaign;

/// Repetitions of the millisecond-scale set-up layer timings (median kept).
constexpr int kSetupReps = 5;
/// Cells sampled for the snapshot/match timings, configurations per cell,
/// and the engine budget of the sampling runs (big grids keep a prefix).
constexpr std::size_t kSampleCells = 16;
constexpr std::size_t kConfigsPerCell = 8;
constexpr long kSampleSteps = 256;
/// Time spent in each snapshot/match timing loop.
constexpr double kMicroLoopSeconds = 0.25;
/// Traced/untraced pass pairs (at least; more while --seconds allows).
constexpr int kMinTracePairs = 3;
/// Rounds of the single-thread ablation legs.
constexpr int kAblationRounds = 2;

/// Bench-side spans: one per call into a layer, kept in memory and printed
/// at the end.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  /// Runs `body` inside a span and returns its result.
  template <typename F>
  auto time(const std::string& layer, const std::string& name, F&& body) {
    const Clock::time_point t0 = Clock::now();
    struct Close {
      Spans& self;
      const std::string& layer;
      const std::string& name;
      Clock::time_point t0;
      ~Close() {
        self.spans_.push_back({layer, name,
                               std::chrono::duration<double>(t0 - self.origin_).count(),
                               seconds_since(t0)});
      }
    } close{*this, layer, name, t0};
    return body();
  }

  /// Duration of the most recent span, in milliseconds.
  double last_ms() const { return spans_.back().dur_s * 1e3; }

  void print() const {
    std::printf("trace spans (layer, name, start s, duration s):\n");
    for (const Span& s : spans_) {
      std::printf("  %-9s %-34s %8.3f %8.3f\n", s.layer.c_str(), s.name.c_str(), s.start_s,
                  s.dur_s);
    }
  }

 private:
  struct Span {
    std::string layer;
    std::string name;
    double start_s;
    double dur_s;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double rate(const PassResult& p) { return static_cast<double>(p.units) / p.wall_s; }

/// Per-job single-thread leg: run_cell timed around each job.
struct JobLeg {
  std::vector<double> job_us;
  double total_ns = 0.0;
  double deterministic_ns = 0.0;
  double sync_ns = 0.0;
  double async_ns = 0.0;
  long sync_instants = 0;
  long async_events = 0;
  long instants = 0;
  long activations = 0;
  long moves = 0;
  long reused = 0;
  long recomputed = 0;
  std::size_t not_ok = 0;
};

JobLeg time_jobs(const Workload& w) {
  JobLeg leg;
  leg.job_us.reserve(w.expansion.jobs.size());
  for (const Job& job : w.expansion.jobs) {
    const Cell& cell = w.expansion.cells[job.cell];
    const Clock::time_point t0 = Clock::now();
    const lumi::RunResult r = run_cell_guarded(cell, job.seed, w.expansion.options);
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    leg.job_us.push_back(ns / 1e3);
    leg.total_ns += ns;
    if (sched_is_deterministic(cell.sched)) leg.deterministic_ns += ns;
    if (sched_synchrony(cell.sched) == lumi::Synchrony::Async) {
      leg.async_ns += ns;
      leg.async_events += r.stats.instants;
    } else {
      leg.sync_ns += ns;
      leg.sync_instants += r.stats.instants;
    }
    leg.instants += r.stats.instants;
    leg.activations += r.stats.activations;
    leg.moves += r.stats.moves;
    leg.reused += r.stats.match_reused;
    leg.recomputed += r.stats.match_recomputed;
    if (!r.ok()) ++leg.not_ok;
  }
  return leg;
}

/// Configurations sampled from the workload: evenly spaced cells, each run
/// with a trace (capped at kSampleSteps), evenly spaced trace entries.
struct Sample {
  std::shared_ptr<const lumi::CompiledAlgorithm> compiled;
  int phi = 1;
  std::vector<lumi::Configuration> configs;
};

std::vector<Sample> sample_configurations(const Workload& w,
                                          const std::map<std::string, lumi::Algorithm>& algs) {
  const std::vector<Cell>& cells = w.expansion.cells;
  std::map<std::size_t, unsigned> first_seed;
  for (const Job& job : w.expansion.jobs) first_seed.emplace(job.cell, job.seed);
  std::vector<Sample> out;
  const std::size_t n = std::min(kSampleCells, cells.size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t c = k * cells.size() / n;
    const lumi::Algorithm& alg = algs.at(cells[c].section);
    lumi::RunOptions opts = w.expansion.options;
    opts.record_trace = true;
    opts.max_steps = kSampleSteps;
    const lumi::RunResult r = run_cell_guarded(cells[c], first_seed[c], opts);
    const std::vector<lumi::TraceEntry>& entries = r.trace.entries();
    if (entries.empty()) continue;
    Sample s{lumi::CompiledAlgorithm::get(alg), alg.phi, {}};
    const std::size_t take = std::min(kConfigsPerCell, entries.size());
    for (std::size_t i = 0; i < take; ++i) {
      s.configs.push_back(entries[i * entries.size() / take].config);
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// ns per take_snapshot_into and per compiled enabled_actions_into over the
/// sampled configurations' robots.
std::pair<double, double> time_snapshot_and_match(const std::vector<Sample>& samples) {
  long sink = 0;
  lumi::Snapshot snap;
  long snapshots = 0;
  Clock::time_point t0 = Clock::now();
  do {
    for (const Sample& s : samples) {
      for (const lumi::Configuration& c : s.configs) {
        for (int i = 0; i < c.num_robots(); ++i) {
          lumi::take_snapshot_into(c, i, s.phi, snap);
          sink += snap.planes.occupied;
          ++snapshots;
        }
      }
    }
  } while (seconds_since(t0) < kMicroLoopSeconds);
  const double snapshot_ns = seconds_since(t0) * 1e9 / static_cast<double>(snapshots);

  std::vector<std::pair<const lumi::CompiledAlgorithm*, lumi::Snapshot>> views;
  for (const Sample& s : samples) {
    for (const lumi::Configuration& c : s.configs) {
      for (int i = 0; i < c.num_robots(); ++i) {
        views.emplace_back(s.compiled.get(), lumi::take_snapshot(c, i, s.phi));
      }
    }
  }
  std::vector<lumi::Action> actions;
  long matches = 0;
  t0 = Clock::now();
  do {
    for (const auto& [compiled, view] : views) {
      lumi::enabled_actions_into(*compiled, view, actions);
      sink += static_cast<long>(actions.size());
      ++matches;
    }
  } while (seconds_since(t0) < kMicroLoopSeconds);
  const double match_ns = seconds_since(t0) * 1e9 / static_cast<double>(matches);
  if (sink == -1) std::printf("unreachable\n");
  return {snapshot_ns, match_ns};
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// Runs the workload's jobs with the next workload seed: deterministic
/// cells must keep byte-identical report rows, and random-scheduler cells
/// must change (when the workload has any).
void check_seed_handling(const Workload& w, unsigned threads, const PassResult& base,
                         Tally& tally) {
  const Workload next = make_workload(w.name, w.seed + 1, w.toy, w.work_dir);
  const PassResult p = run_jobs(next, threads);
  tally.add(p, "next-seed pass");
  const std::vector<std::string> a = lines(base.report);
  const std::vector<std::string> b = lines(p.report);
  std::size_t deterministic = 0, det_same = 0, random = 0, random_changed = 0;
  for (std::size_t i = 0; i < w.expansion.cells.size() && i + 1 < a.size() && i + 1 < b.size();
       ++i) {
    const bool same = a[i + 1] == b[i + 1];
    if (sched_is_deterministic(w.expansion.cells[i].sched)) {
      ++deterministic;
      det_same += same ? 1 : 0;
    } else {
      ++random;
      random_changed += same ? 0 : 1;
    }
  }
  std::printf("seed %llu -> %llu: %zu of %zu deterministic cells byte-identical, %zu of %zu "
              "random-scheduler cells changed\n",
              w.seed, next.seed, det_same, deterministic, random_changed, random);
  tally.check(a.size() == b.size() && det_same == deterministic,
              "a second seed changed a deterministic cell's report row");
  tally.check(random == 0 || random_changed > 0,
              "a second seed left every random-scheduler cell unchanged");
}

}  // namespace

std::vector<Metric> traced_run(const Workload& w, unsigned threads, double seconds,
                               Tally& tally) {
  const Clock::time_point start = Clock::now();
  Spans spans(start);
  lumi::obs::Registry& registry = lumi::obs::Registry::global();
  const std::map<std::string, lumi::Algorithm> algs = workload_algorithms(w);
  std::vector<Metric> m;

  // --- set-up layers: expansion, rule analysis, cold compilation ----------
  std::vector<double> expand_ms, analysis_ms, compile_ms;
  long sink = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    spans.time("campaign", "expand",
               [&] { sink += static_cast<long>(expand(w.matrix).jobs.size()); });
    expand_ms.push_back(spans.last_ms());
    spans.time("analysis", "analyze x" + std::to_string(algs.size()), [&] {
      for (const auto& [section, alg] : algs) sink += lumi::analysis::analyze(alg).errors();
    });
    analysis_ms.push_back(spans.last_ms());
    spans.time("core", "compile x" + std::to_string(algs.size()), [&] {
      for (const auto& [section, alg] : algs) sink += lumi::CompiledAlgorithm(alg).kernel_size();
    });
    compile_ms.push_back(spans.last_ms() / static_cast<double>(algs.size()));
  }
  if (sink == -1) std::printf("unreachable\n");
  m.push_back({"campaign.expand_ms", median(expand_ms), "ms"});
  m.push_back({"analysis.rule_analysis_ms", median(analysis_ms), "ms"});
  m.push_back({"core.compile_ms", median(compile_ms), "ms"});

  // --- per-job single-thread leg --------------------------------------------
  const JobLeg jobs = spans.time("engine", "run_cell per job", [&] { return time_jobs(w); });
  tally.attempted += w.expansion.jobs.size();
  tally.failed += jobs.not_ok;
  if (jobs.not_ok != 0) tally.failures.push_back("per-job leg: jobs not ok");

  // --- single-thread driver legs and their ablations ------------------------
  std::printf("ablations: RunOptions::incremental and batch=1 are switched here; warm start "
              "and the arena have no public switch, so their share is not measured\n");
  // Interleaved rounds of (default, batch=1, incremental off); each gain is
  // the median of its per-round ratios.
  PassResult one;
  std::vector<double> batch_gain, incremental_gain;
  for (int round = 0; round < kAblationRounds; ++round) {
    one = spans.time("campaign", "1-thread pass", [&] { return run_jobs(w, 1); });
    const PassResult per_job =
        spans.time("campaign", "1-thread pass, batch=1", [&] { return run_jobs(w, 1, 1); });
    const PassResult recompute = spans.time("campaign", "1-thread pass, incremental off",
                                            [&] { return run_jobs(w, 1, 0, false); });
    tally.add(one, "1-thread pass");
    tally.add(per_job, "batch=1 pass");
    tally.add(recompute, "incremental-off pass");
    tally.check(per_job.report == one.report, "batch=1 changed the report");
    tally.check(recompute.report == one.report, "incremental off changed the report");
    batch_gain.push_back(rate(one) / rate(per_job));
    incremental_gain.push_back(rate(one) / rate(recompute));
  }

  // --- checkpoint write path ------------------------------------------------
  const Checkpoint ck =
      w.driver == Driver::Orchestrated ? one.checkpoint : checkpoint_of(w.expansion, one.summary);
  std::vector<double> write_ms;
  std::size_t bytes = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    spans.time("campaign", "checkpoint serialize+write", [&] {
      bytes = checkpoint_serialize(ck).size();
      tally.check(checkpoint_write(w.checkpoint_path, ck), "checkpoint_write failed");
    });
    write_ms.push_back(spans.last_ms());
  }

  // --- core: snapshot and match over sampled configurations -----------------
  const std::vector<Sample> samples = spans.time(
      "engine", "sample configurations", [&] { return sample_configurations(w, algs); });
  const auto [snapshot_ns, match_ns] = spans.time(
      "core", "snapshot + match loops", [&] { return time_snapshot_and_match(samples); });

  // --- analysis: the check units and the Theorem-1 demos ---------------------
  const PassResult cert =
      spans.time("analysis", "model_check + adversary", [&] { return run_certification(w); });
  tally.add(cert, "certification pass");

  // --- seed handling ----------------------------------------------------------
  spans.time("campaign", "next-seed pass", [&] { check_seed_handling(w, threads, one, tally); });

  // --- traced vs untraced end-to-end passes ---------------------------------
  // Each pair runs the workload's own pass untraced, then with the registry
  // on.  Campaign workloads read the pool/batch/checkpoint counters from the
  // traced pass; certification has none, so its counters come from one
  // traced all-worker pass over its cells.
  const auto traced = [&](const auto& body) {
    registry.reset();
    registry.set_enabled(true);
    PassResult p = body();
    registry.set_enabled(false);
    return std::make_pair(std::move(p), registry.snapshot());
  };
  std::vector<double> overhead, all_wall;
  lumi::obs::MetricsSnapshot counters;
  double pair_s = 0.0;
  for (int pair = 0; pair < kMinTracePairs || seconds_since(start) + pair_s <= seconds; ++pair) {
    const Clock::time_point p0 = Clock::now();
    const PassResult off =
        spans.time("obs", "untraced pass", [&] { return run_pass(w, threads); });
    auto [on, snap] = spans.time("obs", "traced pass",
                                 [&] { return traced([&] { return run_pass(w, threads); }); });
    tally.add(off, "untraced pass");
    tally.add(on, "traced pass");
    tally.check(on.report == off.report, "tracing changed the report");
    overhead.push_back(rate(off) / rate(on));
    if (w.driver != Driver::Certify) {
      all_wall.push_back(off.wall_s);
      counters = std::move(snap);
    }
    pair_s = seconds_since(p0);
  }
  if (w.driver == Driver::Certify) {
    const PassResult off = run_jobs(w, threads);
    auto [on, snap] = traced([&] { return run_jobs(w, threads); });
    tally.add(off, "untraced all-worker pass");
    tally.add(on, "traced all-worker pass");
    all_wall.push_back(off.wall_s);
    counters = std::move(snap);
  }

  // --- per-layer metrics --------------------------------------------------------
  const auto share = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  long long batches = 0, batch_items = 0;
  for (const lumi::obs::HistogramValue& h : counters.histograms) {
    if (h.name == "campaign.batch_items") {
      batches = h.count;
      batch_items = h.sum;
    }
  }
  const long long executed = counters.counter_prefix_sum("pool.worker.", ".executed");
  const long long stolen = counters.counter_prefix_sum("pool.worker.", ".stolen");

  m.push_back({"campaign.job_p50_us", percentile(jobs.job_us, 0.50), "us"});
  m.push_back({"campaign.job_p99_us", percentile(jobs.job_us, 0.99), "us"});
  m.push_back({"campaign.job_samples", static_cast<double>(jobs.job_us.size()), "count"});
  m.push_back({"campaign.batch_gain", median(batch_gain), "ratio"});
  m.push_back({"campaign.batch_items_mean",
               share(static_cast<double>(batch_items), static_cast<double>(batches)), "count"});
  m.push_back({"campaign.pool_steal_share",
               share(static_cast<double>(stolen), static_cast<double>(executed)), "ratio"});
  m.push_back({"campaign.pool_busy_share",
               share(jobs.total_ns / 1e9, threads * median(all_wall)), "ratio"});
  m.push_back({"campaign.checkpoint_flushes",
               static_cast<double>(counters.counter_or("orchestrate.checkpoint_flushes")),
               "count"});
  m.push_back({"campaign.checkpoint_write_ms", median(write_ms), "ms"});
  m.push_back({"campaign.checkpoint_bytes", static_cast<double>(bytes), "B"});
  m.push_back({"core.snapshot_ns", snapshot_ns, "ns"});
  m.push_back({"core.match_ns", match_ns, "ns"});
  m.push_back({"core.reuse_share",
               share(static_cast<double>(jobs.reused),
                     static_cast<double>(jobs.reused + jobs.recomputed)),
               "ratio"});
  m.push_back({"core.warm_reused",
               static_cast<double>(counters.counter_or("campaign.match.warm_reused")), "count"});
  m.push_back({"core.incremental_gain", median(incremental_gain), "ratio"});
  m.push_back({"engine.sync_ns_per_instant",
               share(jobs.sync_ns, static_cast<double>(jobs.sync_instants)), "ns"});
  m.push_back({"engine.async_ns_per_event",
               share(jobs.async_ns, static_cast<double>(jobs.async_events)), "ns"});
  m.push_back({"engine.deterministic_share", share(jobs.deterministic_ns, jobs.total_ns),
               "ratio"});
  m.push_back({"engine.instants", static_cast<double>(jobs.instants), "count"});
  m.push_back({"engine.activations", static_cast<double>(jobs.activations), "count"});
  m.push_back({"engine.moves", static_cast<double>(jobs.moves), "count"});
  m.push_back({"analysis.check_states", static_cast<double>(cert.check_states), "count"});
  m.push_back({"analysis.check_transitions", static_cast<double>(cert.check_transitions),
               "count"});
  m.push_back({"analysis.check_max_states", static_cast<double>(cert.check_max_states),
               "count"});
  m.push_back({"analysis.check_states_per_s",
               share(static_cast<double>(cert.check_states), cert.check_s), "1/s"});
  m.push_back({"analysis.adversary_ms", cert.adversary_s * 1e3, "ms"});
  m.push_back({"analysis.adversary_states", static_cast<double>(cert.adversary_states),
               "count"});
  m.push_back({"obs.trace_overhead", median(overhead), "ratio"});
  spans.print();
  return m;
}

}  // namespace perfbench
