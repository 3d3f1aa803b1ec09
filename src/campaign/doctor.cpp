#include "src/campaign/doctor.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/dsl/dsl.hpp"
#include "src/topo/topology.hpp"

namespace lumi::campaign {
namespace {

/// Rebuilds the algorithm a recording embeds.  Unvalidated, non-strict: the
/// doctor's whole purpose includes replaying *defective* tables (a livelock
/// recording embeds a table no registry gate would admit).
Algorithm algorithm_of(const obs::Recording& rec) {
  return dsl::parse(rec.prov.algorithm_text, {.validate = false, .strict = false});
}

SchedKind sched_of(const obs::Recording& rec) {
  const std::optional<SchedKind> kind = sched_from_name(rec.prov.scheduler);
  if (!kind.has_value()) {
    throw std::runtime_error("replay: unknown scheduler '" + rec.prov.scheduler + "'");
  }
  return *kind;
}

std::string robot_to_string(std::size_t i, const Robot& r) {
  std::ostringstream out;
  out << "robot " << i << " (" << r.pos.row << "," << r.pos.col << ")="
      << color_letter(r.color);
  return out.str();
}

std::string event_to_string(const obs::RecordedEvent& ev) {
  std::ostringstream out;
  out << "instant " << ev.instant << ' ' << obs::to_string(ev.kind) << " robot " << ev.robot
      << " rule " << ev.rule_index << ' ' << color_letter(ev.color_before) << "->"
      << color_letter(ev.color_after) << " move ";
  if (ev.move.has_value()) {
    out << to_string(*ev.move);
  } else {
    out << "none";
  }
  return out.str();
}

void diff_robots(const char* what, const std::vector<Robot>& want,
                 const std::vector<Robot>& got, std::vector<std::string>& out) {
  if (want.size() != got.size()) {
    out.push_back(std::string(what) + ": robot count " + std::to_string(got.size()) +
                  " != recorded " + std::to_string(want.size()));
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      out.push_back(std::string(what) + ": replay " + robot_to_string(i, got[i]) +
                    " != recorded " + robot_to_string(i, want[i]));
    }
  }
}

char timeline_char(const obs::RecordedEvent& ev) {
  switch (ev.kind) {
    case obs::EventKind::Look: return 'o';
    case obs::EventKind::ComputeEnd: return 'c';
    case obs::EventKind::Move: return 'm';
    case obs::EventKind::SyncAct: break;
  }
  const bool recolors = ev.color_after != ev.color_before;
  if (ev.move.has_value()) {
    if (recolors) return '*';
    switch (*ev.move) {
      case Dir::North: return '^';
      case Dir::East: return '>';
      case Dir::South: return 'v';
      case Dir::West: return '<';
    }
  }
  return recolors ? color_letter(ev.color_after) : 'i';
}

}  // namespace

ReplayCheck replay_recording(const obs::Recording& rec) {
  const Algorithm alg = algorithm_of(rec);
  const Topology topo = make_topology(rec.prov.topo_spec, rec.prov.rows, rec.prov.cols);
  const SchedKind kind = sched_of(rec);

  obs::Recorder recorder(rec.options);
  recorder.set_provenance(rec.prov);
  RunOptions opts;
  opts.max_steps = rec.prov.max_steps;
  opts.require_unique_actions = rec.prov.require_unique_actions;
  opts.recorder = &recorder;

  ReplayCheck check;
  check.result = run_with_sched(CellPlan(alg, topo), kind, rec.prov.seed, opts);
  check.replayed = obs::make_recording(recorder, check.result);

  std::vector<std::string>& d = check.divergences;
  diff_robots("initial configuration", rec.initial, check.replayed.initial, d);
  diff_robots("final configuration", rec.final_robots, check.replayed.final_robots, d);
  if (check.replayed.terminated != rec.terminated || check.replayed.explored_all != rec.explored_all) {
    d.push_back("outcome: replay terminated=" + std::to_string(check.replayed.terminated) +
                " explored=" + std::to_string(check.replayed.explored_all) +
                " != recorded terminated=" + std::to_string(rec.terminated) +
                " explored=" + std::to_string(rec.explored_all));
  }
  const auto stat = [&d](const char* name, long got, long want) {
    if (got != want) {
      d.push_back(std::string("stats.") + name + ": replay " + std::to_string(got) +
                  " != recorded " + std::to_string(want));
    }
  };
  stat("instants", check.replayed.instants, rec.instants);
  stat("activations", check.replayed.activations, rec.activations);
  stat("moves", check.replayed.moves, rec.moves);
  stat("color_changes", check.replayed.color_changes, rec.color_changes);
  if (check.replayed.failure != rec.failure) {
    d.push_back("failure: replay '" + check.replayed.failure + "' != recorded '" + rec.failure +
                "'");
  }
  if (check.replayed.diagnosis != rec.diagnosis) {
    d.push_back("diagnosis: replay " + obs::to_string(check.replayed.diagnosis) +
                " != recorded " + obs::to_string(rec.diagnosis));
  }
  if (check.replayed.cycle != rec.cycle) {
    d.push_back("cycle witness: replay and recording disagree");
  }
  if (check.replayed.events_seen != rec.events_seen) {
    d.push_back("events-seen: replay " + std::to_string(check.replayed.events_seen) +
                " != recorded " + std::to_string(rec.events_seen));
  }
  if (check.replayed.events != rec.events) {
    std::string detail = "event tail differs";
    const std::size_t n = std::min(check.replayed.events.size(), rec.events.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!(check.replayed.events[i] == rec.events[i])) {
        detail += ": first divergence at tail index " + std::to_string(i) + " — replay [" +
                  event_to_string(check.replayed.events[i]) + "] != recorded [" +
                  event_to_string(rec.events[i]) + "]";
        break;
      }
    }
    d.push_back(detail);
  }
  // Catch-all: the serialized bytes are the contract; any residual
  // difference the field checks missed still fails the replay.
  if (d.empty() &&
      obs::recording_serialize(check.replayed) != obs::recording_serialize(rec)) {
    d.push_back("serialized recordings differ");
  }
  return check;
}

bool certify_cycle(const obs::Recording& rec, std::string& why) {
  if (!rec.cycle.has_value()) {
    why = "recording carries no cycle witness";
    return false;
  }
  const long start = rec.cycle->start;
  const long length = rec.cycle->length;
  // The witness must close within the recorded run, which also keeps the
  // replay below its length; start + length is formed only once it fits.
  if (start < 0 || length <= 0 || start > rec.instants || length > rec.instants - start) {
    why = "witness (" + std::to_string(start) + "," + std::to_string(length) +
          ") does not lie within the " + std::to_string(rec.instants) + " recorded instants";
    return false;
  }
  const Algorithm alg = algorithm_of(rec);
  const Topology topo = make_topology(rec.prov.topo_spec, rec.prov.rows, rec.prov.cols);
  RunOptions opts;
  opts.record_trace = true;
  opts.max_steps = start + length;
  const RunResult replay =
      run_with_sched(CellPlan(alg, topo), sched_of(rec), rec.prov.seed, opts);
  // trace[i] is the configuration entering instant i (trace[0] = initial);
  // the witness claims trace[start] recurs at trace[start + length].
  if (replay.trace.size() <= static_cast<std::size_t>(start + length)) {
    why = "execution ended after " + std::to_string(replay.stats.instants) +
          " instants, before the witness cycle completed";
    return false;
  }
  if (!replay.trace[static_cast<std::size_t>(start)].config.same_placement(
          replay.trace[static_cast<std::size_t>(start + length)].config)) {
    why = "configurations at instants " + std::to_string(start) + " and " +
          std::to_string(start + length) +
          " differ — the recorded witness is a hash collision";
    return false;
  }
  why.clear();
  return true;
}

std::string per_robot_timeline(const obs::Recording& rec, int max_instants) {
  std::ostringstream out;
  if (rec.events.empty() || rec.initial.empty() || max_instants <= 0) {
    return "(no recorded events)\n";
  }
  long lo = rec.events.front().instant;
  long hi = rec.events.front().instant;
  for (const obs::RecordedEvent& ev : rec.events) {
    lo = std::min(lo, ev.instant);
    hi = std::max(hi, ev.instant);
  }
  if (hi - lo + 1 > max_instants) lo = hi - max_instants + 1;  // newest window
  const std::size_t width = static_cast<std::size_t>(hi - lo + 1);
  std::vector<std::string> rows(rec.initial.size(), std::string(width, '.'));
  for (const obs::RecordedEvent& ev : rec.events) {
    if (ev.instant < lo || ev.robot < 0 ||
        static_cast<std::size_t>(ev.robot) >= rows.size()) {
      continue;
    }
    rows[static_cast<std::size_t>(ev.robot)][static_cast<std::size_t>(ev.instant - lo)] =
        timeline_char(ev);
  }
  out << "timeline instants " << lo << ".." << hi
      << "  (^>v< move, G/W/B/R recolor, * both, i idle act, o/c/m async "
         "look/compute/move, . inactive)\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << "robot " << r << " |" << rows[r] << "|\n";
  }
  return out.str();
}

std::string rule_fire_counts(const obs::Recording& rec) {
  const Algorithm alg = algorithm_of(rec);
  // Keyed by rule index: the indices come from the file, so nothing is sized
  // by them.
  std::map<int, long long> counts;
  for (const obs::RecordedEvent& ev : rec.events) {
    if (ev.rule_index >= 0) counts[ev.rule_index] += 1;
  }
  if (counts.empty()) return "(no rule firings in the recorded tail)\n";
  std::vector<std::pair<int, long long>> order(counts.begin(), counts.end());
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::ostringstream out;
  out << "rule firings over the recorded tail (" << rec.events.size() << " events):\n";
  for (const auto& [rule, count] : order) {
    const auto i = static_cast<std::size_t>(rule);
    const std::string label = i < alg.rules.size() ? alg.rules[i].label
                                                   : "rule#" + std::to_string(rule);
    out << "  " << label << ": " << count << '\n';
  }
  return out.str();
}

std::string diff_recordings(const obs::Recording& a, const obs::Recording& b,
                            int max_report) {
  if (obs::recording_serialize(a) == obs::recording_serialize(b)) return "";
  std::ostringstream out;
  const auto field = [&out](const char* name, const std::string& va, const std::string& vb) {
    if (va != vb) out << name << ": '" << va << "' vs '" << vb << "'\n";
  };
  field("section", a.prov.section, b.prov.section);
  field("scheduler", a.prov.scheduler, b.prov.scheduler);
  field("seed", std::to_string(a.prov.seed), std::to_string(b.prov.seed));
  field("dims", std::to_string(a.prov.rows) + "x" + std::to_string(a.prov.cols),
        std::to_string(b.prov.rows) + "x" + std::to_string(b.prov.cols));
  field("topology", a.prov.topo_spec, b.prov.topo_spec);
  field("max-steps", std::to_string(a.prov.max_steps), std::to_string(b.prov.max_steps));
  if (a.prov.algorithm_text != b.prov.algorithm_text) out << "algorithm text differs\n";
  field("diagnosis", obs::to_string(a.diagnosis), obs::to_string(b.diagnosis));
  if (a.events.size() != b.events.size()) {
    out << "event tail: " << a.events.size() << " vs " << b.events.size() << " events\n";
  }
  int reported = 0;
  const std::size_t n = std::min(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < n && reported < max_report; ++i) {
    if (!(a.events[i] == b.events[i])) {
      out << "event[" << i << "]: [" << event_to_string(a.events[i]) << "] vs ["
          << event_to_string(b.events[i]) << "]\n";
      ++reported;
    }
  }
  if (reported == max_report) out << "(further event divergences elided)\n";
  field("outcome",
        std::to_string(a.terminated) + "/" + std::to_string(a.explored_all),
        std::to_string(b.terminated) + "/" + std::to_string(b.explored_all));
  field("stats",
        std::to_string(a.instants) + " " + std::to_string(a.activations) + " " +
            std::to_string(a.moves) + " " + std::to_string(a.color_changes),
        std::to_string(b.instants) + " " + std::to_string(b.activations) + " " +
            std::to_string(b.moves) + " " + std::to_string(b.color_changes));
  field("failure", a.failure, b.failure);
  std::vector<std::string> robot_diffs;
  diff_robots("final configuration", a.final_robots, b.final_robots, robot_diffs);
  for (const std::string& line : robot_diffs) out << line << '\n';
  if (out.str().empty()) out << "recordings differ only in serialized detail\n";
  return out.str();
}

}  // namespace lumi::campaign
