// Workloads of the repository benchmark and the passes that run them.
//
// A workload is a fixed job list built through the library's public entry
// points: campaign::expand for the job list, run_campaign / run_orchestrated
// to execute campaign jobs, model_check / find_ssync_adversary for the
// certification units.  Everything here is shared by the end-to-end run
// (harness.cpp) and the traced per-layer run (layers.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/model_checker.hpp"
#include "src/campaign/campaign.hpp"
#include "src/campaign/checkpoint.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 1]) of `values`.
double percentile(std::vector<double> values, double q);

/// Which public entry point executes the workload's end-to-end job list.
enum class Driver { Campaign, Orchestrated, Certify };

/// One exhaustive model_check call.
struct CheckUnit {
  std::string section;
  int rows = 0;
  int cols = 0;
  lumi::CheckModel model = lumi::CheckModel::Fsync;
};

struct Workload {
  std::string name;
  unsigned long long seed = 0;
  bool toy = false;
  std::string work_dir;
  Driver driver = Driver::Campaign;
  lumi::campaign::Matrix matrix;
  /// The job list.  For certify_table1 its cells are the certified
  /// (section, grid, model) points, one deterministic scheduler per model.
  lumi::campaign::Expansion expansion;
  /// Model-checker units: the job list of certify_table1, and the
  /// rows*cols <= 64 cells of a campaign workload (a traced-run probe).
  std::vector<CheckUnit> checks;
  /// The checkpoint file (run_orchestrated's, and the traced run's
  /// checkpoint-write timing) and micro_ckpt's flush interval.
  std::string checkpoint_path;
  double flush_seconds = 0.0;
};

/// One named benchmark metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct PassResult;

/// Units and output checks attempted and failed across a run.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  /// Counts a pass's units and output checks.
  void add(const PassResult& p, const std::string& what);
  /// Counts one output check.
  void check(bool ok, const std::string& what);
};

/// The traced run: times the calls into each layer from this harness, reads
/// the library's own pool/campaign/orchestrate counters, and returns every
/// per-layer metric.  Runs for about `seconds`.
std::vector<Metric> traced_run(const Workload& w, unsigned threads, double seconds, Tally& tally);

/// Campaign seed list for workload seed `seed`: the k consecutive values
/// seed*k + 1 .. seed*k + k (mod 2^32), so seed 0 is campaign_cli's 1..k and
/// consecutive workload seeds never share a campaign seed.
std::vector<unsigned> campaign_seeds(unsigned long long seed, unsigned k);

bool known_workload(const std::string& name);

/// Builds the named workload: registry, campaign::expand (which runs the
/// rule-table analyzer on every section) and the check list.  `toy` shrinks
/// every dimension for the smoke test.  `work_dir` holds the checkpoint file.
Workload make_workload(const std::string& name, unsigned long long seed, bool toy,
                       const std::string& work_dir);

/// Cold-path warm-up done before the first job is dispatched: one
/// CompiledAlgorithm::get per section, so the first compilations land in
/// set-up rather than in the first pass.
void warm_compilations(const Workload& w);

/// The distinct algorithms of a workload, built once per section.
std::map<std::string, lumi::Algorithm> workload_algorithms(const Workload& w);

/// One pass over a workload's job list.
struct PassResult {
  double wall_s = 0.0;
  std::size_t units = 0;   ///< jobs, or model_check + adversary calls
  std::size_t failed = 0;  ///< units whose outcome is not ok
  std::size_t checks = 0;  ///< output checks performed in the pass
  std::vector<std::string> check_failures;
  /// Canonical rendering of the results: campaign_csv for campaign jobs,
  /// one verdict line per unit for certification.
  std::string report;
  lumi::campaign::CampaignSummary summary;    ///< campaign drivers only
  lumi::campaign::Checkpoint checkpoint;      ///< Orchestrated only
  /// Certification only: exact checker counts and the time split between
  /// model_check calls and adversary demos.
  long check_states = 0;
  long check_transitions = 0;
  long check_max_states = 0;
  long adversary_states = 0;
  double check_s = 0.0;
  double adversary_s = 0.0;
};

/// Runs the workload's campaign jobs through its driver (run_campaign, or
/// run_orchestrated with a checkpoint for micro_ckpt; certify_table1's cells
/// go through run_campaign).  `batch` and `incremental` are the ablation
/// switches; the checkpoint reload check runs outside the timed section.
PassResult run_jobs(const Workload& w, unsigned threads, std::size_t batch = 0,
                    bool incremental = true);

/// Runs every check unit through model_check and the Theorem-1 adversary
/// demos, single-threaded, checking every verdict.
PassResult run_certification(const Workload& w);

/// The end-to-end pass of the workload on `threads` workers (certification
/// ignores `threads`: it runs single-threaded like the checker itself).
PassResult run_pass(const Workload& w, unsigned threads);

/// Jobs that are not ok() according to the summary's accumulators.
std::size_t failed_jobs(const lumi::campaign::CampaignSummary& summary);

/// The checkpoint a campaign over `expansion` with result `summary` holds.
lumi::campaign::Checkpoint checkpoint_of(const lumi::campaign::Expansion& expansion,
                                         const lumi::campaign::CampaignSummary& summary);

/// Worker threads: the CPUs this process may run on.
unsigned available_cpus();

}  // namespace perfbench
