// Declarative scenario campaigns: a matrix of algorithms (registry sections)
// x bounding-box dimensions x topologies x schedulers x seeds is expanded
// into jobs, executed in batches by worker threads, and aggregated into
// per-cell and per-campaign summaries.  For fixed seeds the summary is
// identical for any worker count.  Topology specs ("grid", "torus",
// "holes", "obstacles:15:7", ... — src/topo/topology.hpp) are a first-class
// cell axis: they shard, checkpoint, resume and merge exactly like grids.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/campaign/aggregate.hpp"
#include "src/engine/runner.hpp"

namespace lumi::campaign {

/// The scheduler families a campaign can sweep (mirrors src/sched).
enum class SchedKind : std::uint8_t {
  Fsync,
  SsyncRandom,
  SsyncRoundRobin,
  AsyncRandom,
  AsyncCentralized,
  AsyncStaleStress,
};

inline constexpr SchedKind kAllSchedKinds[] = {
    SchedKind::Fsync,           SchedKind::SsyncRandom,      SchedKind::SsyncRoundRobin,
    SchedKind::AsyncRandom,     SchedKind::AsyncCentralized, SchedKind::AsyncStaleStress,
};

std::string to_string(SchedKind kind);
/// Parses the names printed by to_string (the explore_cli spellings);
/// std::nullopt for unknown names.
std::optional<SchedKind> sched_from_name(const std::string& name);
/// True for schedulers whose behavior ignores the seed (a single job per
/// cell suffices).
bool sched_is_deterministic(SchedKind kind);
/// The synchrony class the scheduler exercises (Fsync < Ssync < Async).
Synchrony sched_synchrony(SchedKind kind);
/// Whether an algorithm designed for `model` is guaranteed correct under the
/// scheduler: the scheduler's class must be no more asynchronous than the
/// model the algorithm tolerates.
bool compatible(Synchrony model, SchedKind kind);

/// Inclusive integer range `from..to` advancing by `step`.  Both endpoints
/// are always emitted: `to` appears even when `to - from` is not a multiple
/// of `step` (so "4..64:12" covers the 64-column edge it names).
struct IntRange {
  int from = 0;
  int to = -1;  ///< default-constructed range is empty
  int step = 1;

  /// Throws std::invalid_argument on a non-positive step.
  std::vector<int> values() const;
};

/// Parses the campaign CLI range grammar — "8", "4..64" or "4..64:12" —
/// into an inclusive stepped range.  std::nullopt (with nothing written
/// anywhere) on malformed text, a non-positive lower bound, or a
/// zero/negative step; an empty range ("6..4") parses fine and simply
/// expands to nothing.
std::optional<IntRange> range_from_string(const std::string& text);

/// Declarative scenario matrix.  Sections name Table-1 rows in the registry;
/// unknown sections throw at expansion time.
struct Matrix {
  std::vector<std::string> sections;
  IntRange rows;
  IntRange cols;
  /// Topology specs to sweep at every (rows, cols) point; "grid" is the
  /// seed behavior.  Canonicalized at expansion (e.g. "holes" becomes the
  /// explicit "holes:HxW@RxC" for the cell's dimensions).
  std::vector<std::string> topologies = {"grid"};
  std::vector<SchedKind> schedulers;
  /// Seeds for randomized schedulers; deterministic ones always contribute
  /// exactly one job per cell.
  std::vector<unsigned> seeds = {1};
  RunOptions options;
};

/// One scenario cell: a point of the matrix whose runs are aggregated
/// together (seeds are replicas within the cell).
struct Cell {
  std::string section;
  int rows = 0;
  int cols = 0;
  SchedKind sched = SchedKind::Fsync;
  std::string topo = "grid";  ///< canonical topology spec

  friend bool operator==(const Cell&, const Cell&) = default;
};

std::string to_string(const Cell& cell);

/// One unit of work: a cell replica under a concrete seed.
struct Job {
  std::size_t cell = 0;  ///< index into Expansion::cells
  unsigned seed = 0;
};

struct Expansion {
  std::vector<Cell> cells;
  std::vector<Job> jobs;
  RunOptions options;
};

/// Expands the matrix in deterministic order (section-major, then rows, cols,
/// scheduler, seed), skipping the combinations the model forbids: grids below
/// the algorithm's minimum, topologies that cannot be built at the cell's
/// dimensions (or whose walls displace the initial placement), and
/// schedulers more asynchronous than the algorithm's model.  Throws
/// std::out_of_range on unknown sections and std::invalid_argument (carrying
/// the analyzer's findings) when a section's rule table fails the semantic
/// analyzer — ill-formed algorithms are rejected before a single job runs.
Expansion expand(const Matrix& matrix);

/// Runs the plan under a freshly constructed scheduler of kind `kind`
/// seeded with `seed` — the per-job tail of run_cell once the cell's plan
/// is built, exposed for the replay/doctor tooling
/// (src/campaign/doctor.hpp): a recording names (algorithm, topology,
/// scheduler kind, seed), and re-running through this exact funnel is what
/// makes replays byte-identical.
RunResult run_with_sched(const CellPlan& plan, SchedKind kind, unsigned seed,
                         const RunOptions& opts);

/// The cell's CellPlan: registry algorithm, parsed topology, compiled
/// tables and initial configuration.  Throws on an unknown section, a bad
/// topology spec or an initial placement the grid cannot hold.
CellPlan plan_cell(const Cell& cell);

/// Executes one job (used by the runner; exposed for tests/benches).
RunResult run_cell(const Cell& cell, unsigned seed, const RunOptions& options);

/// Like run_cell, but converts an escaping exception into a RunResult whose
/// failure string records it (campaigns never abort on a single bad job).
RunResult run_cell_guarded(const Cell& cell, unsigned seed, const RunOptions& options);

/// How many same-cell jobs one batch should execute back-to-back when the
/// batch size is left automatic: sized so per-batch work stays roughly
/// constant — tiny worlds (where building the cell's plan rivals the
/// simulation) get large batches, big worlds run singly.  Async schedulers
/// spend ~3 events per robot cycle, so their runs weigh more at equal area.
/// Derived from the cell's bounding box only (walled topologies just finish
/// early), so the grouping — unlike the results, which are identical at any
/// batch size — is cheap and deterministic.
std::size_t auto_batch_size(const Cell& cell);

/// Executes `seeds.size()` jobs of `cell` as one unit: the cell's plan is
/// built once and every item runs from it.  `sink(item, result)` is invoked
/// in seed order.  Each item is guarded like run_cell_guarded; a failure to
/// build the plan is reported on every item.  Summaries are byte-identical
/// to running the seeds through run_cell one by one.
void run_cell_batch(const Cell& cell, std::span<const unsigned> seeds,
                    const RunOptions& options,
                    const std::function<void(std::size_t, const RunResult&)>& sink);

struct CellSummary {
  Cell cell;
  CellAccumulator acc;
};

/// Result-inert anomaly capture (the `--record-anomalies` flag): when armed,
/// the first `limit` anomalous jobs (nonempty failure — budget exhaustion,
/// verifier failure, escaped exception) are *re-run* with a flight recorder
/// attached and dumped as `.lumirec` files into `dir`.  Every scheduler is
/// deterministic given its seed, so the re-run reproduces the anomalous
/// execution exactly; it happens entirely outside the accumulator path, so
/// reports and checkpoints are byte-identical with capture on or off
/// (tests/test_obs_identity.cpp).  Which K anomalies win the claim race
/// under threads is timing-dependent; the file a given job produces is not.
struct AnomalyCapture {
  std::string dir;        ///< existing directory; empty = capture off
  std::size_t limit = 8;  ///< max recordings per campaign (per shard)
};

/// Re-records one anomalous job through record_run with 4096-slot
/// capture_options (src/campaign/doctor.hpp), so the file is by
/// construction what replaying its provenance records, and writes
/// `dir/anomaly-<cell>-s<seed>.lumirec`.  Never throws — a capture failure
/// must not kill the campaign; returns whether a file was written.
bool capture_anomaly(const Cell& cell, unsigned seed, const RunOptions& base,
                     const AnomalyCapture& capture);

struct CampaignSummary {
  std::vector<CellSummary> cells;
  CellAccumulator total;
  std::size_t jobs = 0;
  unsigned threads = 1;
  double wall_seconds = 0.0;
};

/// Runs every job of the expansion on `threads` workers (0 = all hardware
/// threads): run_orchestrated (src/campaign/orchestrate.hpp) with no
/// checkpoint and no adaptive pass.  Exceptions escaping a job are recorded
/// as that run's failure.  `batch` is the number of consecutive same-cell
/// jobs one worker task executes (0 = automatic per cell via
/// auto_batch_size, 1 = the per-job reference path).  Summaries are
/// byte-identical for any batch size and any worker count
/// (tests/test_batching.cpp pins this).  `capture`, when non-null with a
/// nonempty dir, records the first anomalous jobs (see AnomalyCapture)
/// without affecting the summary.
CampaignSummary run_campaign(const Expansion& expansion, unsigned threads = 0,
                             std::size_t batch = 0, const AnomalyCapture* capture = nullptr);
CampaignSummary run_campaign(const Matrix& matrix, unsigned threads = 0, std::size_t batch = 0);

/// Sections of the eleven directly implemented paper algorithms (Algorithms
/// 1-11), in Table-1 order.
std::vector<std::string> paper_sections();
/// All fourteen Table-1 sections, including the three derived rows.
std::vector<std::string> all_sections();

}  // namespace lumi::campaign
