#include "src/campaign/doctor.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/core/text.hpp"
#include "src/dsl/dsl.hpp"
#include "src/topo/topology.hpp"

namespace lumi::campaign {
namespace {

/// diff_recordings names at most this many differing events.
constexpr int kMaxEventLines = 10;

/// Rebuilds the algorithm a recording embeds.  Unvalidated: the doctor's
/// whole purpose includes replaying *defective* tables (a livelock recording
/// embeds a table no registry gate would admit).
Algorithm algorithm_of(const obs::Recorder::Provenance& prov) {
  return dsl::parse(prov.algorithm_text);
}

std::string robot_to_string(const Robot& r) {
  std::ostringstream out;
  out << '(' << r.pos.row << ',' << r.pos.col << ")=" << color_letter(r.color);
  return out.str();
}

std::string event_to_string(const obs::RecordedEvent& ev) {
  std::ostringstream out;
  out << "instant " << ev.instant << ' ' << obs::to_string(ev.kind) << " robot " << ev.robot
      << " rule " << ev.rule_index << " sym " << int(ev.sym.rot) << '/' << ev.sym.mirror << ' '
      << color_letter(ev.color_before) << "->" << color_letter(ev.color_after) << " move ";
  if (ev.move.has_value()) {
    out << to_string(*ev.move);
  } else {
    out << "none";
  }
  return out.str();
}

std::string witness_to_string(const std::optional<obs::Recorder::CycleWitness>& w) {
  if (!w.has_value()) return "none";
  return std::to_string(w->start) + " " + std::to_string(w->length) + " " + hex16(w->hash);
}

/// The first line where two algorithm texts differ, both sides shown.
std::string algorithm_difference(const std::string& a, const std::string& b) {
  LineReader la(a);
  LineReader lb(b);
  while (!la.at_end() || !lb.at_end()) {
    const std::string x(la.at_end() ? "(none)" : la.line());
    const std::string y(lb.at_end() ? "(none)" : lb.line());
    if (x != y) {
      return "algorithm line " + std::to_string(std::max(la.lineno(), lb.lineno())) + ": '" +
             x + "' vs '" + y + "'";
    }
  }
  return "algorithm: texts differ only in line endings";
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

obs::Recording record_run(const obs::Recorder::Options& options,
                          const obs::Recorder::Provenance& prov) {
  const Algorithm alg = algorithm_of(prov);
  const Topology topo = make_topology(prov.topo_spec, prov.rows, prov.cols);
  const std::optional<SchedKind> kind = sched_from_name(prov.scheduler);
  if (!kind.has_value()) throw std::runtime_error("unknown scheduler '" + prov.scheduler + "'");
  obs::Recorder recorder(options);
  RunOptions opts;
  opts.max_steps = prov.max_steps;
  opts.require_unique_actions = prov.require_unique_actions;
  opts.recorder = &recorder;
  const RunResult result = run_with_sched(CellPlan(alg, topo), *kind, prov.seed, opts);
  return obs::make_recording(recorder, prov, result);
}

obs::Recorder::Options capture_options(const std::string& scheduler, std::size_t capacity) {
  return {.capacity = capacity, .detect_cycles = sched_from_name(scheduler) == SchedKind::Fsync};
}

std::vector<std::string> replay_recording(const obs::Recording& rec) {
  return diff_recordings(rec, record_run(rec.options, rec.prov));
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
  // The final robots of a run cut at instant t are the configuration
  // entering t; one ring slot each keeps memory flat in the witness length.
  obs::Recorder::Provenance cut = rec.prov;
  cut.max_steps = start;
  const obs::Recording at_start = record_run({.capacity = 1}, cut);
  cut.max_steps = start + length;
  const obs::Recording at_end = record_run({.capacity = 1}, cut);
  if (at_end.instants < start + length) {
    why = "execution ended after " + std::to_string(at_end.instants) +
          " instants, before the witness cycle completed";
    return false;
  }
  const Topology topo = make_topology(rec.prov.topo_spec, rec.prov.rows, rec.prov.cols);
  if (!Configuration(topo, at_start.final_robots)
           .same_placement(Configuration(topo, at_end.final_robots))) {
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
  const Algorithm alg = algorithm_of(rec.prov);
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

std::vector<std::string> diff_recordings(const obs::Recording& a, const obs::Recording& b) {
  std::vector<std::string> out;
  const auto field = [&out](const std::string& name, const std::string& va,
                            const std::string& vb) {
    if (va != vb) out.push_back(name + ": '" + va + "' vs '" + vb + "'");
  };
  const auto robots = [&field](const char* what, const std::vector<Robot>& ra,
                               const std::vector<Robot>& rb) {
    field(what, std::to_string(ra.size()), std::to_string(rb.size()));
    for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
      field(what + std::string(" robot ") + std::to_string(i), robot_to_string(ra[i]),
            robot_to_string(rb[i]));
    }
  };
  using std::to_string;
  field("capacity", to_string(a.options.capacity), to_string(b.options.capacity));
  field("detect-cycles", to_string(a.options.detect_cycles), to_string(b.options.detect_cycles));
  field("section", a.prov.section, b.prov.section);
  field("scheduler", a.prov.scheduler, b.prov.scheduler);
  field("seed", to_string(a.prov.seed), to_string(b.prov.seed));
  field("dims", to_string(a.prov.rows) + "x" + to_string(a.prov.cols),
        to_string(b.prov.rows) + "x" + to_string(b.prov.cols));
  field("topology", a.prov.topo_spec, b.prov.topo_spec);
  field("max-steps", to_string(a.prov.max_steps), to_string(b.prov.max_steps));
  field("unique-actions", to_string(a.prov.require_unique_actions),
        to_string(b.prov.require_unique_actions));
  if (a.prov.algorithm_text != b.prov.algorithm_text) {
    out.push_back(algorithm_difference(a.prov.algorithm_text, b.prov.algorithm_text));
  }
  robots("init", a.initial, b.initial);
  field("diagnosis", obs::to_string(a.diagnosis), obs::to_string(b.diagnosis));
  field("cycle", witness_to_string(a.cycle), witness_to_string(b.cycle));
  field("events-seen", to_string(a.events_seen), to_string(b.events_seen));
  field("events", to_string(a.events.size()), to_string(b.events.size()));
  int reported = 0;
  for (std::size_t i = 0; i < std::min(a.events.size(), b.events.size()); ++i) {
    if (a.events[i] == b.events[i]) continue;
    if (reported++ == kMaxEventLines) {
      out.push_back("(further event divergences elided)");
      break;
    }
    field("ev " + to_string(i), event_to_string(a.events[i]), event_to_string(b.events[i]));
  }
  field("outcome", to_string(a.terminated) + " " + to_string(a.explored_all),
        to_string(b.terminated) + " " + to_string(b.explored_all));
  field("stats.instants", to_string(a.instants), to_string(b.instants));
  field("stats.activations", to_string(a.activations), to_string(b.activations));
  field("stats.moves", to_string(a.moves), to_string(b.moves));
  field("stats.color_changes", to_string(a.color_changes), to_string(b.color_changes));
  field("failure", a.failure, b.failure);
  robots("final", a.final_robots, b.final_robots);
  // A field no line above names (the format version, or one added later)
  // still makes the recordings differ.
  if (out.empty() && !(a == b)) out.push_back("recordings differ in a field not named here");
  return out;
}

}  // namespace lumi::campaign
