#include "src/campaign/orchestrate.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace_event.hpp"

namespace lumi::campaign {

namespace {

/// Adaptive escalation rounds after the base pass (AdaptivePolicy).
constexpr unsigned kMaxEscalationRounds = 8;

bool seed_done(const CheckpointCell& cell, unsigned seed) {
  return std::binary_search(cell.seeds_done.begin(), cell.seeds_done.end(), seed);
}

void record_seed(CheckpointCell& cell, unsigned seed) {
  cell.seeds_done.insert(
      std::lower_bound(cell.seeds_done.begin(), cell.seeds_done.end(), seed), seed);
}

/// Snapshots and atomically writes the checkpoint; serialization happens
/// outside the state lock so workers keep running during I/O.  `version` is
/// bumped (under the state lock) on every result added; a failed periodic
/// write leaves the flushed version behind, so the next tick retries.
class CheckpointFlusher {
 public:
  CheckpointFlusher(const std::string& path, double interval_seconds, std::mutex& state_mu,
                    const Checkpoint& state, const std::uint64_t& version)
      : path_(path), state_mu_(state_mu), state_(state), version_(version) {
    if (path_.empty()) return;
    thread_ = std::thread([this, interval_seconds] {
      std::unique_lock lock(mu_);
      const auto interval = std::chrono::duration<double>(std::max(interval_seconds, 0.01));
      while (!stop_) {
        cv_.wait_for(lock, interval);
        if (stop_) return;
        flush();
      }
    });
  }

  /// Stops the periodic thread and writes the final state; false when that
  /// write fails (the checkpoint on disk is then stale — the caller must not
  /// pretend the campaign is safely persisted).  True when no persistence
  /// was configured.  Idempotent; also run by the destructor for exception
  /// paths.
  bool finish() {
    if (!thread_.joinable()) return path_.empty() || flush();
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    return flush();
  }

  ~CheckpointFlusher() { finish(); }

 private:
  bool flush() {
    Checkpoint snapshot;
    std::uint64_t version;
    {
      std::lock_guard lock(state_mu_);
      version = version_;
      if (wrote_once_ && version == flushed_version_) return true;
      snapshot = state_;
    }
    // Flush count and latency are telemetry about the write, taken entirely
    // outside the serialized state — they can never leak into the checkpoint
    // bytes (obs-isolation bans obs:: from checkpoint.* itself).
    static obs::Counter& obs_flushes =
        obs::Registry::global().counter("orchestrate.checkpoint_flushes");
    static obs::Histogram& obs_flush_ms = obs::Registry::global().histogram(
        "orchestrate.flush_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
    obs::Span span("checkpoint.flush", "orchestrate");
    span.set_arg("version", static_cast<long long>(version));
    // Telemetry-only latency read.  lumi-lint: allow(wall-clock)
    const auto t0 = std::chrono::steady_clock::now();
    if (!checkpoint_write(path_, snapshot)) return false;
    // lumi-lint: allow(wall-clock) — telemetry latency, as above
    const auto dur = std::chrono::steady_clock::now() - t0;
    obs_flushes.add(1);
    obs_flush_ms.record(std::chrono::duration_cast<std::chrono::milliseconds>(dur).count());
    flushed_version_ = version;
    wrote_once_ = true;
    return true;
  }

  const std::string path_;
  std::mutex& state_mu_;
  const Checkpoint& state_;
  const std::uint64_t& version_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  // Touched only by the flusher thread, or after it is joined.
  bool wrote_once_ = false;
  std::uint64_t flushed_version_ = 0;
};

/// How many expansion jobs target each cell (= the cell's base seed count).
std::vector<std::size_t> base_jobs_per_cell(const Expansion& expansion) {
  std::vector<std::size_t> out(expansion.cells.size(), 0);
  for (const Job& job : expansion.jobs) ++out[job.cell];
  return out;
}

std::vector<Job> escalation_round(const Checkpoint& ck, const std::vector<std::size_t>& base,
                                  const AdaptivePolicy& policy) {
  std::vector<Job> out;
  for (std::size_t i = 0; i < ck.cells.size(); ++i) {
    const CheckpointCell& c = ck.cells[i];
    if (sched_is_deterministic(c.cell.sched)) continue;
    // A cell with no local base jobs belongs to another shard: its stats here
    // are partial (or empty) and must not drive escalation.
    if (base[i] == 0) continue;
    if (c.seeds_done.size() < base[i]) continue;  // base pass incomplete here
    const std::size_t extra_used = c.seeds_done.size() - base[i];
    if (extra_used >= policy.max_extra_seeds) continue;
    const bool unhealthy =
        c.acc.termination_rate() < 1.0 ||
        (policy.instants_variance_threshold >= 0.0 &&
         c.acc.instants.variance() > policy.instants_variance_threshold);
    if (!unhealthy) continue;
    const std::size_t budget =
        std::min<std::size_t>(policy.seeds_per_round, policy.max_extra_seeds - extra_used);
    unsigned next = c.seeds_done.empty() ? 1 : c.seeds_done.back() + 1;
    for (std::size_t k = 0; k < budget; ++k) out.push_back({i, next++});
  }
  return out;
}

}  // namespace

OrchestratorReport run_orchestrated(const Expansion& expansion,
                                    const OrchestratorOptions& options) {
  // The flusher hands the interval to std::chrono, whose conversion of a
  // non-finite duration to integer ticks is undefined.
  if (!options.checkpoint_path.empty() &&
      !(std::isfinite(options.flush_seconds) && options.flush_seconds > 0)) {
    throw std::invalid_argument("run_orchestrated: flush_seconds must be finite and positive");
  }
  // wall_seconds is an execution-environment diagnostic: it never reaches
  // checkpoints or the merged JSON report.  lumi-lint: allow(wall-clock)
  const auto start = std::chrono::steady_clock::now();

  // Telemetry handles (result-inert; docs/OBSERVABILITY.md has the catalog).
  obs::Registry& obs_reg = obs::Registry::global();
  obs::Counter& obs_resume_skips = obs_reg.counter("orchestrate.resume_skips");
  obs::Counter& obs_seeds_escalated = obs_reg.counter("orchestrate.seeds_escalated");
  obs::Counter& obs_cells_done = obs_reg.counter("campaign.cells_done");
  // Base (pre-escalation) job count per cell: drives escalation eligibility
  // and the cells_done completion tick.
  const std::vector<std::size_t> base = base_jobs_per_cell(expansion);

  Checkpoint ck = make_checkpoint(expansion);
  if (!options.checkpoint_path.empty()) {
    if (std::optional<Checkpoint> loaded = checkpoint_load(options.checkpoint_path)) {
      if (loaded->fingerprint != ck.fingerprint) {
        throw std::runtime_error("run_orchestrated: checkpoint '" + options.checkpoint_path +
                                 "' belongs to a different matrix (fingerprint mismatch)");
      }
      if (loaded->cells.size() != ck.cells.size()) {
        throw std::runtime_error("run_orchestrated: checkpoint cell count mismatch");
      }
      for (std::size_t i = 0; i < ck.cells.size(); ++i) {
        if (!(loaded->cells[i].cell == ck.cells[i].cell)) {
          throw std::runtime_error("run_orchestrated: checkpoint cell list mismatch");
        }
      }
      ck = std::move(*loaded);
      // Cells this resume starts with already complete (their base pass done
      // in an earlier invocation) count toward the progress meter's total.
      for (std::size_t i = 0; i < ck.cells.size(); ++i) {
        if (base[i] > 0 && ck.cells[i].seeds_done.size() >= base[i]) obs_cells_done.add(1);
      }
    }
  }

  OrchestratorReport report;
  // Resume: the base jobs the loaded checkpoint already covers are dropped
  // before any worker starts, so the decision never races with this
  // invocation's own results (and duplicate jobs all run).
  std::vector<Job> base_jobs;
  base_jobs.reserve(expansion.jobs.size());
  for (const Job& job : expansion.jobs) {
    if (seed_done(ck.cells[job.cell], job.seed)) {
      ++report.jobs_skipped;
      obs_resume_skips.add(1);
    } else {
      base_jobs.push_back(job);
    }
  }
  std::mutex state_mu;
  std::uint64_t version = 0;
  const unsigned threads =
      options.threads != 0 ? options.threads : std::max(1u, std::thread::hardware_concurrency());

  {
    CheckpointFlusher flusher(options.checkpoint_path, options.flush_seconds, state_mu, ck,
                              version);
    // Anomaly-capture claim counter: workers race fetch_add for the K capture
    // slots.  Telemetry-side only — which jobs win affects which .lumirec
    // files appear, never the summary (each file's content is deterministic).
    // lumi-lint: allow(relaxed-atomic)
    std::atomic<std::size_t> capture_claims{0};

    // Runs one pass; false when the per-invocation cap cut it short.  The
    // jobs are cut into batches of consecutive same-cell jobs, at most
    // `options.batch` items each (0 = automatic), before any of them runs;
    // each item is still recorded in the checkpoint individually, so the cap,
    // the flusher and kill/resume see single jobs.  The calling thread and up
    // to `threads - 1` helpers, never more threads than batches, then claim
    // batches in list order and join.
    const auto run_jobs = [&](const std::vector<Job>& jobs, bool base_pass) {
      std::vector<std::pair<std::size_t, std::vector<unsigned>>> batches;  // (cell, seeds)
      bool capped = false;
      std::size_t i = 0;
      while (i < jobs.size() && !capped) {
        const std::size_t cell_index = jobs[i].cell;
        const std::size_t cap = options.batch != 0
                                    ? options.batch
                                    : auto_batch_size(expansion.cells[cell_index]);
        std::vector<unsigned> seeds;
        while (i < jobs.size() && jobs[i].cell == cell_index && seeds.size() < cap) {
          if (options.max_jobs != 0 && report.jobs_executed >= options.max_jobs) {
            capped = true;
            break;
          }
          ++report.jobs_executed;
          if (!base_pass) {
            ++report.escalation_jobs;
            obs_seeds_escalated.add(1);
          }
          seeds.push_back(jobs[i].seed);
          ++i;
        }
        if (!seeds.empty()) batches.emplace_back(cell_index, std::move(seeds));
      }
      std::atomic<std::size_t> next{0};
      const auto claim_batches = [&] {
        for (std::size_t b = next++; b < batches.size(); b = next++) {
          const std::size_t cell_index = batches[b].first;
          const std::vector<unsigned>& seeds = batches[b].second;
          run_cell_batch(expansion.cells[cell_index], seeds, expansion.options,
                         [&](std::size_t item, const RunResult& result) {
                           {
                             std::lock_guard lock(state_mu);
                             CheckpointCell& cell = ck.cells[cell_index];
                             cell.acc.add(result);
                             record_seed(cell, seeds[item]);
                             ++version;
                             // Completion tick for the progress meter: fires
                             // exactly once, when the base pass crosses done.
                             if (cell.seeds_done.size() == base[cell_index]) {
                               obs_cells_done.add(1);
                             }
                           }
                           // Anomaly capture runs outside the state lock —
                           // it re-executes the job, which must not stall
                           // the checkpoint funnel.  Result-inert.
                           if (!options.record_anomalies.dir.empty() &&
                               !result.failure.empty() &&
                               // lumi-lint: allow(relaxed-atomic)
                               capture_claims.fetch_add(1, std::memory_order_relaxed) <
                                   options.record_anomalies.limit) {
                             capture_anomaly(expansion.cells[cell_index], seeds[item],
                                             expansion.options, options.record_anomalies);
                           }
                         });
        }
      };
      {
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1; t < std::min<std::size_t>(threads, batches.size()); ++t) {
          helpers.emplace_back(claim_batches);
        }
        claim_batches();
      }  // the helpers join here
      return !capped;
    };

    report.complete = run_jobs(base_jobs, /*base_pass=*/true);

    if (report.complete && options.adaptive.enabled) {
      for (unsigned round = 0; round < kMaxEscalationRounds; ++round) {
        std::vector<Job> jobs;
        {
          std::lock_guard lock(state_mu);
          jobs = escalation_round(ck, base, options.adaptive);
        }
        if (jobs.empty()) break;
        ++report.escalation_rounds;
        report.complete = run_jobs(jobs, /*base_pass=*/false);
        if (!report.complete) break;
      }
    }
    if (!flusher.finish()) {
      throw std::runtime_error("run_orchestrated: failed to write checkpoint '" +
                               options.checkpoint_path + "' — progress is NOT persisted");
    }
  }

  report.summary = checkpoint_summary(ck);
  report.summary.threads = threads;
  report.summary.wall_seconds =  // diagnostic, as above
      // lumi-lint: allow(wall-clock)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Same env-diagnostic promotion as run_campaign: metrics snapshot only,
  // never the JSON report or the checkpoint.
  obs_reg.gauge("campaign.wall_ms")
      .set(static_cast<long long>(report.summary.wall_seconds * 1000.0));
  obs_reg.gauge("campaign.threads").set(report.summary.threads);
  report.checkpoint = std::move(ck);
  return report;
}

CampaignSummary run_campaign(const Expansion& expansion, unsigned threads, std::size_t batch,
                             const AnomalyCapture* capture) {
  OrchestratorOptions options;
  options.threads = threads;
  options.batch = batch;
  if (capture != nullptr) options.record_anomalies = *capture;
  return run_orchestrated(expansion, options).summary;
}

CampaignSummary run_campaign(const Matrix& matrix, unsigned threads, std::size_t batch) {
  return run_campaign(expand(matrix), threads, batch);
}

}  // namespace lumi::campaign
