// Campaign orchestration: resumable, checkpointed, adaptively escalating
// execution of an expansion (or a shard of one).  This is the only campaign
// driver — run_campaign is run_orchestrated with no checkpoint and no
// adaptive pass.
//
// Results funnel into a Checkpoint under one lock (job execution dominates,
// so contention is negligible); an aggregation thread periodically snapshots
// it and writes the file via atomic rename, so a campaign killed at any
// instant resumes from its last flush without re-running completed jobs.
// Because every accumulator operation is an exact commutative integer
// update, the final state is identical no matter how jobs interleave, shard
// or resume.
#pragma once

#include <cstddef>
#include <string>

#include "src/campaign/campaign.hpp"
#include "src/campaign/checkpoint.hpp"

namespace lumi::campaign {

/// After the base pass, cells that misbehave — a run that did not
/// terminate, or instants variance above `instants_variance_threshold` —
/// receive `seeds_per_round` fresh seeds per round (continuing past the
/// highest seed consumed), for at most 8 rounds, until they recover or the
/// `max_extra_seeds` per-cell budget runs out.  Cells under deterministic
/// schedulers never escalate (the seed is ignored there).
struct AdaptivePolicy {
  bool enabled = false;
  double instants_variance_threshold = -1.0;  ///< negative: variance never escalates
  unsigned seeds_per_round = 4;
  unsigned max_extra_seeds = 16;
};

struct OrchestratorOptions {
  unsigned threads = 0;            ///< 0 = all hardware threads
  std::string checkpoint_path;     ///< empty: no persistence (in-memory only)
  double flush_seconds = 5.0;      ///< periodic checkpoint flush interval
  std::size_t max_jobs = 0;        ///< stop after N new jobs this invocation (0 = no cap)
  /// Same-cell jobs per worker task (0 = automatic per cell, 1 = per-job).
  /// Checkpoints record per job, so kill/resume and max_jobs semantics are
  /// unchanged at any batch size, and reports are byte-identical.
  std::size_t batch = 0;
  AdaptivePolicy adaptive;
  /// Anomaly capture (campaign.hpp): empty dir = off.  The limit applies per
  /// invocation, i.e. per shard when a campaign is sharded.  Result-inert —
  /// checkpoints and reports are byte-identical with capture on or off.
  AnomalyCapture record_anomalies;
};

struct OrchestratorReport {
  CampaignSummary summary;
  Checkpoint checkpoint;           ///< final state (what the last flush wrote)
  std::size_t jobs_skipped = 0;    ///< base jobs already done in the loaded checkpoint
  std::size_t jobs_executed = 0;   ///< jobs newly run this invocation
  std::size_t escalation_jobs = 0;
  unsigned escalation_rounds = 0;
  bool complete = true;            ///< false when max_jobs cut the run short
};

/// Runs the expansion's jobs that the checkpoint at
/// `options.checkpoint_path` (if any) does not already cover, then any
/// adaptive escalation rounds.  Throws std::runtime_error when an existing
/// checkpoint belongs to a different matrix (fingerprint or cell mismatch),
/// and std::invalid_argument when a checkpoint path is set and
/// `flush_seconds` is not finite and positive.
OrchestratorReport run_orchestrated(const Expansion& expansion,
                                    const OrchestratorOptions& options);

}  // namespace lumi::campaign
