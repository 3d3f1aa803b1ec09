// Recording doctor: the one way to run a recorded job (record_run), plus
// deterministic replay, loop-witness certification and human-readable
// diagnosis of `.lumirec` flight recordings (src/obs/recorder.hpp, format in
// docs/FORMATS.md).
//
// Lives in the campaign layer (not obs) because a recorded run needs the
// scheduler funnel: a recording names (algorithm text, topology spec,
// scheduler kind, seed), and run_with_sched re-executes exactly that.  Every
// scheduler is deterministic given its seed, so a capture is by construction
// what replaying its provenance records: a replay either reproduces the
// recorded run byte-for-byte or the recording (or the simulator) is wrong —
// there is no in-between, and replay_recording treats any divergence as a
// hard error for its caller to surface.
#pragma once

#include <string>
#include <vector>

#include "src/campaign/campaign.hpp"
#include "src/obs/recorder.hpp"

namespace lumi::campaign {

/// Runs one recorded job: parses `prov.algorithm_text` unvalidated (a
/// livelock recording embeds a table no registry gate would admit), builds
/// the topology and scheduler it names, runs under the recorded budget and
/// verifier with a recorder of `options`, and returns the recording.  Every
/// recorded run — anomaly capture, `run_doctor --record`, replay and cycle
/// certification — goes through here.  Throws std::runtime_error for an
/// unknown scheduler name, std::invalid_argument for algorithm text or a
/// topology spec that does not parse.
obs::Recording record_run(const obs::Recorder::Options& options,
                          const obs::Recorder::Provenance& prov);

/// The options a fresh recording of a run under `scheduler` uses: `capacity`
/// ring slots, and the cycle detector armed exactly under FSYNC.  A hash
/// revisit only proves a loop when the scheduler is a pure function of the
/// configuration: FSYNC's first-behavior adversary is; round-robin and the
/// async engines carry private state.  Replay passes the file's own options
/// to record_run instead, and certification one slot without the detector.
obs::Recorder::Options capture_options(const std::string& scheduler, std::size_t capacity);

/// diff_recordings(rec, record_run(rec.options, rec.prov)): the re-recording
/// uses the original's options and provenance, so an empty list means the
/// recording reproduces byte-for-byte.  Throws what record_run throws when
/// the recording cannot be replayed.
std::vector<std::string> replay_recording(const obs::Recording& rec);

/// Certifies a cycle witness by re-recording the run twice, cut at instant
/// `start` and at `start + length`, and checking the two final
/// configurations are the same placement (not just the same hash — a hash
/// collision cannot be certified).  Both re-recordings keep one event, so
/// memory does not grow with the witness.  `why` explains a false verdict.
/// False when the recording carries no witness.
bool certify_cycle(const obs::Recording& rec, std::string& why);

/// Per-robot ASCII timelines over the recorded event tail: one row per
/// robot, one column per instant; movement arrows (^>v<), recolor letters,
/// '*' recolor+move, async o/c/m for Look/ComputeEnd/Move, '.' idle.  At
/// most `max_instants` newest instants (the tail is what explains an
/// anomaly).
std::string per_robot_timeline(const obs::Recording& rec, int max_instants = 96);

/// Per-rule fire counts over the event tail, labeled via the recording's own
/// algorithm text, most-fired first (ties by rule index).
std::string rule_fire_counts(const obs::Recording& rec);

/// The one comparison of two recordings: one line per differing field,
/// `FIELD: <a's value> vs <b's value>`, in file order — the options,
/// provenance and initial robots, the diagnosis, cycle witness and
/// events-seen, the first ten differing events, then the outcome, stats,
/// failure and final robots.  Empty exactly when the recordings are equal.
std::vector<std::string> diff_recordings(const obs::Recording& a, const obs::Recording& b);

}  // namespace lumi::campaign
