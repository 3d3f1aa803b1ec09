// Recording doctor: deterministic replay, loop-witness certification and
// human-readable diagnosis of `.lumirec` flight recordings
// (src/obs/recorder.hpp, format in docs/FORMATS.md).
//
// Lives in the campaign layer (not obs) because replay needs the scheduler
// funnel: a recording names (algorithm text, topology spec, scheduler kind,
// seed), and run_with_sched re-executes exactly that.  Every scheduler is
// deterministic given its seed, so a replay either reproduces the recorded
// run byte-for-byte or the recording (or the simulator) is wrong — there is
// no in-between, and replay_recording treats any divergence as a hard error
// for its caller to surface.
#pragma once

#include <string>
#include <vector>

#include "src/campaign/campaign.hpp"
#include "src/obs/recorder.hpp"

namespace lumi::campaign {

/// Replay result: the re-run's outcome, the re-recorded recording (same
/// capacity/provenance as the original, so byte-identity with the original
/// file is meaningful), and every divergence found.  An empty `divergences`
/// certifies the recording: same final configuration, same stats, same
/// events, same serialized bytes.
struct ReplayCheck {
  RunResult result;
  obs::Recording replayed;
  std::vector<std::string> divergences;

  bool identical() const { return divergences.empty(); }
};

/// Re-executes the recording and compares everything result-bearing.
/// Throws when the recording cannot be replayed at all: std::runtime_error
/// for an unknown scheduler name, std::invalid_argument for algorithm text
/// or a topology spec that does not parse.
ReplayCheck replay_recording(const obs::Recording& rec);

/// Certifies a cycle witness by replaying the run to instant
/// `start + length` with a full trace and checking the configuration at
/// `start` recurs (same placement, not just same hash — a hash collision
/// cannot be certified).  `why` explains a false verdict.  False when the
/// recording carries no witness.
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

/// Instant-by-instant diff of two recordings: provenance fields, then the
/// first `max_report` event divergences, then outcome/stats/final robots.
/// Empty string when the recordings are identical.
std::string diff_recordings(const obs::Recording& a, const obs::Recording& b,
                            int max_report = 10);

}  // namespace lumi::campaign
