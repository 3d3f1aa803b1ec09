// Execution flight recorder: a bounded ring buffer of per-instant structured
// events (who activated, which (rule, symmetry) fired, color before/after,
// movement) fed by both engines, plus configuration-hash tracking that turns
// "did not terminate" into a diagnosis.
//
// Design constraints (docs/OBSERVABILITY.md#flight-recorder):
//  - Strictly an observer: attaching a recorder never changes a run's control
//    flow, results or stats — the engines call the hooks and nothing else.
//    Report/checkpoint byte-identity with recording on vs off is pinned by
//    tests/test_obs_identity.cpp, and the obs-isolation lint rule keeps
//    recorder symbols out of the report/checkpoint serializers.
//  - Near-zero when off: a run without a recorder pays one pointer test per
//    instant (RunOptions::recorder is null by default — the same default-off
//    discipline as the metrics registry).  Every perfbench end-to-end number
//    runs recorder-off, so it includes that test.
//  - Bounded: the ring keeps the newest `capacity` events (the tail is what
//    explains an anomaly); `events_seen()` still counts everything.
//
// Termination diagnosis: under a deterministic memoryless scheduler (FSYNC's
// first-behavior adversary), the next configuration is a pure function of the
// current one, so a `canonical_hash` revisit proves the execution loops
// forever.  With `detect_cycles` armed the recorder tracks a seen-hash map
// and records the first recurrence as a CycleWitness; run_doctor certifies a
// witness by replaying the cycle and checking the placement actually recurs
// (src/campaign/doctor.hpp), so a 64-bit hash collision can never survive to
// a certified verdict.  Contrapositive of the proof: a terminating run never
// revisits a configuration, so a budget-limited terminating run is diagnosed
// `budget-exhausted`, never `cycle`.
//
// Anomalous runs dump a canonical versioned `.lumirec` file — initial
// configuration + algorithm text + topology spec + scheduler seed + event
// tail + final outcome, format documented in docs/FORMATS.md#lumirec —
// written atomically (tmp + rename, like checkpoints).  The file carries
// everything a deterministic replay needs; `run_doctor` re-executes it and
// hard-errors unless the final configuration and stats are byte-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/configuration.hpp"
#include "src/engine/sync_engine.hpp"

namespace lumi {
struct RunResult;  // src/engine/runner.hpp; full include would be circular
}  // namespace lumi

namespace lumi::obs {

/// What one recorded event describes: a full synchronous activation, or one
/// of the three ASYNC cycle events.
enum class EventKind : std::uint8_t {
  SyncAct,     ///< FSYNC/SSYNC: one robot's full cycle within an instant
  Look,        ///< ASYNC: snapshot taken, decision latched
  ComputeEnd,  ///< ASYNC: the decided color becomes visible
  Move,        ///< ASYNC: the decided movement is applied
};

std::string to_string(EventKind kind);
/// Parses the names printed by to_string; throws std::invalid_argument.
EventKind event_kind_from_name(const std::string& name);

/// One structured event.  Look/SyncAct carry the full decision (rule,
/// symmetry, colors, movement in the global frame); ComputeEnd/Move carry
/// only the robot (their effect is the pending decision's, already recorded
/// at Look time).
struct RecordedEvent {
  long instant = 0;  ///< sync instant or async event index (0-based)
  EventKind kind = EventKind::SyncAct;
  int robot = -1;
  int rule_index = -1;  ///< -1 when the event carries no decision
  Sym sym;
  Color color_before = Color::G;
  Color color_after = Color::G;
  std::optional<Dir> move;  ///< global frame; nullopt = stay / not applicable

  friend bool operator==(const RecordedEvent&, const RecordedEvent&) = default;
};

/// The flight recorder.  One recorder observes one run at a time (begin_run
/// resets per-run state); it is not thread-safe — each run owns its own.
class Recorder {
 public:
  struct Options {
    /// Ring slots: the newest `capacity` events survive (clamped to >= 1).
    /// A bound, not an allocation: the ring grows as events arrive, so a
    /// recording file may name any capacity.
    std::size_t capacity = 4096;
    /// Track a seen-hash map of instant-boundary configurations and record
    /// the first canonical_hash recurrence.  Only a *proof* of
    /// non-termination under a deterministic memoryless scheduler (FSYNC);
    /// callers arm it exactly there.
    bool detect_cycles = false;

    friend bool operator==(const Options&, const Options&) = default;
  };

  /// Where the recorded run came from — everything a deterministic replay
  /// needs.  `algorithm_text` is dsl::serialize of the algorithm (the file is
  /// self-contained even for tables outside the registry); `scheduler` is
  /// the campaign spelling ("fsync", "ssync-random", ...).
  struct Provenance {
    std::string section;         ///< registry section; may be empty (ad-hoc table)
    std::string algorithm_text;  ///< dsl text, parseable by dsl::parse
    std::string topo_spec;       ///< Topology::spec()
    int rows = 0;
    int cols = 0;
    std::string scheduler;
    unsigned seed = 0;
    long max_steps = 0;
    bool require_unique_actions = false;

    friend bool operator==(const Provenance&, const Provenance&) = default;
  };

  /// First configuration-hash recurrence: the configuration entering instant
  /// `start` reappeared entering instant `start + length`.
  struct CycleWitness {
    long start = 0;
    long length = 0;
    std::uint64_t hash = 0;

    friend bool operator==(const CycleWitness&, const CycleWitness&) = default;
  };

  Recorder();  ///< default options (gcc bug 88165 forbids `Options options = {}`)
  explicit Recorder(Options options);

  // --- engine-facing hooks (called only when a run carries a recorder) -----

  /// Starts a fresh run: captures the initial robots, clears the ring and the
  /// seen-hash state, and (when armed) hashes the initial configuration.
  void begin_run(const Configuration& initial);
  /// One synchronous instant, called with the configuration *before*
  /// apply_sync_step and the scheduler's selection: records one SyncAct per
  /// selected robot, in selection order.
  void record_sync_instant(long instant, const Configuration& before,
                           std::span<const RobotAction> selected);
  /// One ASYNC event.  `decision` is the latched action for Look events and
  /// null for ComputeEnd/Move.
  void record_async_event(long event, EventKind kind, int robot, Color color_before,
                          const Action* decision);
  /// The configuration entering instant `instant` (called after each applied
  /// step): maintains the final-robots snapshot and the cycle detector.
  void record_configuration(long instant, const Configuration& config);

  // --- consumer surface ----------------------------------------------------

  const Options& options() const { return options_; }
  const std::vector<Robot>& initial_robots() const { return initial_; }
  /// Robots of the last configuration seen (the final configuration once the
  /// run returned); the initial robots when no instant completed.
  const std::vector<Robot>& last_robots() const { return last_; }
  long long events_seen() const { return seen_; }
  /// The surviving tail, oldest first.
  std::vector<RecordedEvent> tail() const;
  const std::optional<CycleWitness>& cycle() const { return cycle_; }

 private:
  void push(const RecordedEvent& event);

  Options options_;
  std::vector<Robot> initial_;
  std::vector<Robot> last_;
  std::vector<RecordedEvent> ring_;
  std::size_t next_ = 0;  ///< ring write cursor once the ring is full
  long long seen_ = 0;
  /// canonical_hash -> instant of first occurrence.  Lookup-only (never
  /// iterated), so unordered is safe; frozen once a witness is found, so a
  /// looping run cannot grow it without bound.
  std::unordered_map<std::uint64_t, long> first_seen_;
  std::optional<CycleWitness> cycle_;
};

/// Why a recorded run stopped.
enum class Diagnosis : std::uint8_t {
  Terminated,       ///< clean termination (not an anomaly)
  Cycle,            ///< hash recurrence under a deterministic memoryless scheduler
  BudgetExhausted,  ///< step/event budget ran out with no recurrence seen
  VerifierFailure,  ///< unique-actions violation, scheduler bug or exception
};

std::string to_string(Diagnosis d);
/// Parses the names printed by to_string; throws std::invalid_argument.
Diagnosis diagnosis_from_name(const std::string& name);

/// Classifies a finished run observed by `rec`.  A cycle witness wins over
/// budget exhaustion (the exhaustion is a consequence of the loop).
Diagnosis diagnose(const Recorder& rec, const RunResult& result);

/// A complete recording: what a `.lumirec` file holds.
struct Recording {
  int version = 1;
  Recorder::Options options;  ///< capacity + detect_cycles of the recording run
  Recorder::Provenance prov;
  std::vector<Robot> initial;  ///< index-ordered initial robots
  Diagnosis diagnosis = Diagnosis::Terminated;
  std::optional<Recorder::CycleWitness> cycle;
  long long events_seen = 0;
  std::vector<RecordedEvent> events;  ///< surviving tail, oldest first
  // Final outcome, the replay-identity target:
  bool terminated = false;
  bool explored_all = false;
  long instants = 0;
  long activations = 0;
  long moves = 0;
  long color_changes = 0;  ///< the four result-bearing RunStats fields;
                           ///< match_* are perf diagnostics and excluded
  std::string failure;
  std::vector<Robot> final_robots;  ///< index-ordered

  friend bool operator==(const Recording&, const Recording&) = default;
};

/// Assembles a Recording from a recorder, the provenance of the run it
/// observed, and the run's result.
Recording make_recording(const Recorder& rec, const Recorder::Provenance& prov,
                         const RunResult& result);

/// Canonical text serialization (docs/FORMATS.md#lumirec).  parse(serialize)
/// is the identity, and serialize(parse(text)) == text for canonical files.
std::string recording_serialize(const Recording& rec);
/// Throws std::runtime_error naming the line on malformed input.
Recording recording_parse(const std::string& text);

/// Writes via tmp-file + atomic rename (a reader never sees a torn file);
/// false on I/O failure.
bool recording_write(const std::string& path, const Recording& rec);
/// std::nullopt when `path` does not exist; throws std::runtime_error when
/// it exists but cannot be read, or on malformed content (a present but
/// corrupt recording must not be mistaken for an absent one).
std::optional<Recording> recording_load(const std::string& path);

}  // namespace lumi::obs
