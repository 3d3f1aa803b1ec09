#include "src/obs/recorder.hpp"

#include <sstream>
#include <stdexcept>

#include "src/core/text.hpp"
#include "src/engine/runner.hpp"

namespace lumi::obs {
namespace {

char move_char(const std::optional<Dir>& move) {
  if (!move) return '-';
  switch (*move) {
    case Dir::North: return 'N';
    case Dir::East: return 'E';
    case Dir::South: return 'S';
    case Dir::West: return 'W';
  }
  return '-';
}

std::optional<Dir> move_from_char(char c) {
  switch (c) {
    case '-': return std::nullopt;
    case 'N': return Dir::North;
    case 'E': return Dir::East;
    case 'S': return Dir::South;
    case 'W': return Dir::West;
    default: throw std::runtime_error(std::string("bad move letter '") + c + "'");
  }
}

bool to_bool(std::string_view s) {
  if (s == "0") return false;
  if (s == "1") return true;
  throw std::runtime_error("bad flag '" + std::string(s) + "'");
}

char single_char(std::string_view s) {
  if (s.size() != 1) throw std::runtime_error("'" + std::string(s) + "' is not one character");
  return s[0];
}

void serialize_robots(std::ostringstream& out, const std::vector<Robot>& robots) {
  for (std::size_t i = 0; i < robots.size(); ++i) {
    out << "robot " << i << ' ' << robots[i].pos.row << ' ' << robots[i].pos.col << ' '
        << color_letter(robots[i].color) << '\n';
  }
}

/// A record count.  It only frames the records that follow and never sizes
/// an allocation: vectors grow as records parse, so an oversized count fails
/// at the first missing record.
long long count_of(LineReader& in, std::string_view key) {
  return in.number<long long>(in.field(key), 0);
}

std::vector<Robot> parse_robots(LineReader& in, std::string_view key) {
  std::vector<Robot> robots;
  const long long n = count_of(in, key);
  for (long long i = 0; i < n; ++i) {
    const auto f = in.fields("robot", 4);
    if (in.number<long long>(f[0]) != i) throw std::runtime_error("robots out of order");
    // Coordinates must fit int: narrowed, they would replay another run.
    robots.push_back(Robot{.pos = {in.number<int>(f[1]), in.number<int>(f[2])},
                           .color = color_from_letter(single_char(f[3]))});
  }
  return robots;
}

}  // namespace

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::SyncAct: return "sync";
    case EventKind::Look: return "look";
    case EventKind::ComputeEnd: return "compute";
    case EventKind::Move: return "move";
  }
  return "sync";
}

EventKind event_kind_from_name(const std::string& name) {
  if (name == "sync") return EventKind::SyncAct;
  if (name == "look") return EventKind::Look;
  if (name == "compute") return EventKind::ComputeEnd;
  if (name == "move") return EventKind::Move;
  throw std::invalid_argument("unknown event kind '" + name + "'");
}

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
}

void Recorder::begin_run(const Configuration& initial) {
  initial_.assign(initial.robots().begin(), initial.robots().end());
  last_ = initial_;
  ring_.clear();
  next_ = 0;
  seen_ = 0;
  first_seen_.clear();
  cycle_.reset();
  if (options_.detect_cycles) first_seen_.emplace(initial.canonical_hash(), 0);
}

void Recorder::push(const RecordedEvent& event) {
  if (ring_.size() < options_.capacity) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % options_.capacity;
  }
  ++seen_;
}

void Recorder::record_sync_instant(long instant, const Configuration& before,
                                   std::span<const RobotAction> selected) {
  for (const RobotAction& ra : selected) {
    push(RecordedEvent{.instant = instant,
                       .kind = EventKind::SyncAct,
                       .robot = ra.robot,
                       .rule_index = ra.action.rule_index,
                       .sym = ra.action.sym,
                       .color_before = before.robot(ra.robot).color,
                       .color_after = ra.action.new_color,
                       .move = ra.action.move});
  }
}

void Recorder::record_async_event(long event, EventKind kind, int robot, Color color_before,
                                  const Action* decision) {
  RecordedEvent ev{.instant = event,
                   .kind = kind,
                   .robot = robot,
                   .rule_index = -1,
                   .sym = {},
                   .color_before = color_before,
                   .color_after = color_before,
                   .move = std::nullopt};
  if (decision != nullptr) {
    ev.rule_index = decision->rule_index;
    ev.sym = decision->sym;
    ev.color_after = decision->new_color;
    ev.move = decision->move;
  }
  push(ev);
}

void Recorder::record_configuration(long instant, const Configuration& config) {
  last_.assign(config.robots().begin(), config.robots().end());
  if (!options_.detect_cycles || cycle_.has_value()) return;
  const std::uint64_t h = config.canonical_hash();
  const auto [it, inserted] = first_seen_.try_emplace(h, instant);
  if (!inserted) {
    cycle_ = CycleWitness{.start = it->second, .length = instant - it->second, .hash = h};
  }
}

std::vector<RecordedEvent> Recorder::tail() const {
  std::vector<RecordedEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.capacity) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

std::string to_string(Diagnosis d) {
  switch (d) {
    case Diagnosis::Terminated: return "terminated";
    case Diagnosis::Cycle: return "cycle";
    case Diagnosis::BudgetExhausted: return "budget-exhausted";
    case Diagnosis::VerifierFailure: return "verifier-failure";
  }
  return "verifier-failure";
}

Diagnosis diagnosis_from_name(const std::string& name) {
  if (name == "terminated") return Diagnosis::Terminated;
  if (name == "cycle") return Diagnosis::Cycle;
  if (name == "budget-exhausted") return Diagnosis::BudgetExhausted;
  if (name == "verifier-failure") return Diagnosis::VerifierFailure;
  throw std::invalid_argument("unknown diagnosis '" + name + "'");
}

Diagnosis diagnose(const Recorder& rec, const RunResult& result) {
  // A witness wins over everything: the budget exhaustion that usually
  // accompanies it is a *consequence* of the loop.  Under the deterministic
  // memoryless schedulers the witness is armed for, a terminating run never
  // revisits a configuration, so Cycle and Terminated cannot both hold.
  if (rec.cycle().has_value()) return Diagnosis::Cycle;
  if (result.terminated && result.failure.empty()) return Diagnosis::Terminated;
  if (result.failure.starts_with("step budget exhausted") ||
      result.failure.starts_with("event budget exhausted")) {
    return Diagnosis::BudgetExhausted;
  }
  return Diagnosis::VerifierFailure;
}

Recording make_recording(const Recorder& rec, const Recorder::Provenance& prov,
                         const RunResult& result) {
  Recording out;
  out.options = rec.options();
  out.prov = prov;
  out.initial = rec.initial_robots();
  out.diagnosis = diagnose(rec, result);
  out.cycle = rec.cycle();
  out.events_seen = rec.events_seen();
  out.events = rec.tail();
  out.terminated = result.terminated;
  out.explored_all = result.explored_all;
  out.instants = result.stats.instants;
  out.activations = result.stats.activations;
  out.moves = result.stats.moves;
  out.color_changes = result.stats.color_changes;
  out.failure = result.failure;
  out.final_robots = rec.last_robots();
  return out;
}

std::string recording_serialize(const Recording& rec) {
  std::ostringstream out;
  out << "lumirec " << rec.version << '\n';
  out << "capacity " << rec.options.capacity << '\n';
  out << "detect-cycles " << (rec.options.detect_cycles ? 1 : 0) << '\n';
  out << "section " << encode_token(rec.prov.section) << '\n';
  out << "scheduler " << encode_token(rec.prov.scheduler) << ' ' << rec.prov.seed << '\n';
  out << "dims " << rec.prov.rows << ' ' << rec.prov.cols << '\n';
  out << "topology " << encode_token(rec.prov.topo_spec) << '\n';
  out << "max-steps " << rec.prov.max_steps << '\n';
  out << "unique-actions " << (rec.prov.require_unique_actions ? 1 : 0) << '\n';
  // The algorithm text rides along verbatim (dsl lines never need escaping);
  // the line count frames it so the parser needs no sentinel.
  std::vector<std::string_view> alg_lines;
  for (LineReader alg(rec.prov.algorithm_text); !alg.at_end();) alg_lines.push_back(alg.line());
  out << "algorithm " << alg_lines.size() << '\n';
  for (const std::string_view line : alg_lines) out << line << '\n';
  out << "init " << rec.initial.size() << '\n';
  serialize_robots(out, rec.initial);
  out << "diagnosis " << to_string(rec.diagnosis) << '\n';
  if (rec.cycle.has_value()) {
    out << "cycle " << rec.cycle->start << ' ' << rec.cycle->length << ' '
        << hex16(rec.cycle->hash) << '\n';
  }
  out << "events-seen " << rec.events_seen << '\n';
  out << "events " << rec.events.size() << '\n';
  for (const RecordedEvent& ev : rec.events) {
    out << "ev " << ev.instant << ' ' << to_string(ev.kind) << ' ' << ev.robot << ' '
        << ev.rule_index << ' ' << int(ev.sym.rot) << ' ' << (ev.sym.mirror ? 1 : 0) << ' '
        << color_letter(ev.color_before) << ' ' << color_letter(ev.color_after) << ' '
        << move_char(ev.move) << '\n';
  }
  out << "outcome " << (rec.terminated ? 1 : 0) << ' ' << (rec.explored_all ? 1 : 0) << '\n';
  out << "stats " << rec.instants << ' ' << rec.activations << ' ' << rec.moves << ' '
      << rec.color_changes << '\n';
  if (rec.failure.empty()) {
    out << "failure ok\n";
  } else {
    out << "failure err " << encode_token(rec.failure) << '\n';
  }
  out << "final " << rec.final_robots.size() << '\n';
  serialize_robots(out, rec.final_robots);
  out << "end\n";
  return out.str();
}

namespace {

Recording parse_recording(LineReader& in) {
  Recording rec;
  rec.version = in.number<int>(in.field("lumirec"));
  if (rec.version != 1) {
    throw std::runtime_error("unsupported lumirec version " + std::to_string(rec.version));
  }
  rec.options.capacity = in.number<std::size_t>(in.field("capacity"), 1);
  rec.options.detect_cycles = to_bool(in.field("detect-cycles"));
  rec.prov.section = decode_token(in.field("section"));
  {
    const auto f = in.fields("scheduler", 2);
    rec.prov.scheduler = decode_token(f[0]);
    rec.prov.seed = in.number<unsigned>(f[1]);
  }
  {
    const auto f = in.fields("dims", 2);
    rec.prov.rows = in.number<int>(f[0]);
    rec.prov.cols = in.number<int>(f[1]);
  }
  rec.prov.topo_spec = decode_token(in.field("topology"));
  rec.prov.max_steps = in.number<long>(in.field("max-steps"), 0);
  rec.prov.require_unique_actions = to_bool(in.field("unique-actions"));
  for (long long i = 0, n = count_of(in, "algorithm"); i < n; ++i) {
    rec.prov.algorithm_text += in.line();
    rec.prov.algorithm_text += '\n';
  }
  rec.initial = parse_robots(in, "init");
  rec.diagnosis = diagnosis_from_name(std::string(in.field("diagnosis")));
  // The recorder keeps a witness only with its detector armed, and diagnose
  // says `cycle` exactly when a witness exists.
  if (in.next_is("cycle")) {
    const auto f = in.fields("cycle", 3);
    if (!rec.options.detect_cycles) throw std::runtime_error("cycle witness with detect-cycles 0");
    if (rec.diagnosis != Diagnosis::Cycle) {
      throw std::runtime_error("cycle witness under diagnosis " + to_string(rec.diagnosis));
    }
    Recorder::CycleWitness w;
    w.start = in.number<long>(f[0]);
    w.length = in.number<long>(f[1]);
    if (!parse_hex16(f[2], w.hash)) {
      throw std::runtime_error("'" + std::string(f[2]) + "' is not 16 hex digits");
    }
    rec.cycle = w;
  } else if (rec.diagnosis == Diagnosis::Cycle) {
    throw std::runtime_error("diagnosis cycle without a cycle witness");
  }
  rec.events_seen = count_of(in, "events-seen");
  // The ring keeps at most `capacity` of the events it saw.
  const long long kept = count_of(in, "events");
  if (static_cast<unsigned long long>(kept) > rec.options.capacity) {
    throw std::runtime_error(std::to_string(kept) + " kept events exceed capacity " +
                             std::to_string(rec.options.capacity));
  }
  if (kept > rec.events_seen) {
    throw std::runtime_error(std::to_string(kept) + " kept events exceed events-seen " +
                             std::to_string(rec.events_seen));
  }
  // Events come as the engines emit them: instants never decrease and stay
  // inside the step budget.
  long first = 0;
  for (long long i = 0; i < kept; ++i) {
    const auto f = in.fields("ev", 9);
    RecordedEvent ev;
    ev.instant = in.number<long>(f[0], first);
    if (ev.instant >= rec.prov.max_steps) {
      throw std::runtime_error("event instant " + std::to_string(ev.instant) +
                               " is past max-steps");
    }
    first = ev.instant;
    ev.kind = event_kind_from_name(std::string(f[1]));
    ev.robot = in.number<int>(f[2]);
    ev.rule_index = in.number<int>(f[3]);
    ev.sym.rot = in.number<std::uint8_t>(f[4]);
    if (ev.sym.rot > 3) throw std::runtime_error("rotation " + std::string(f[4]) + " is not 0-3");
    ev.sym.mirror = to_bool(f[5]);
    ev.color_before = color_from_letter(single_char(f[6]));
    ev.color_after = color_from_letter(single_char(f[7]));
    ev.move = move_from_char(single_char(f[8]));
    rec.events.push_back(ev);
  }
  {
    const auto f = in.fields("outcome", 2);
    rec.terminated = to_bool(f[0]);
    rec.explored_all = to_bool(f[1]);
  }
  {
    const auto f = in.fields("stats", 4);
    rec.instants = in.number<long>(f[0], 0);
    rec.activations = in.number<long>(f[1], 0);
    rec.moves = in.number<long>(f[2], 0);
    rec.color_changes = in.number<long>(f[3], 0);
  }
  // No run executes more instants than its budget.
  if (rec.instants > rec.prov.max_steps) {
    throw std::runtime_error("stats instants " + std::to_string(rec.instants) +
                             " exceed max-steps");
  }
  // A witness closes within the recorded run (start + length may overflow,
  // so it is never formed).
  const std::optional<Recorder::CycleWitness>& w = rec.cycle;
  if (w && (w->start < 0 || w->length < 1 || w->start > rec.instants ||
            w->length > rec.instants - w->start)) {
    throw std::runtime_error("cycle witness ends outside the recorded instants");
  }
  {
    const auto f = in.fields("failure");
    if (f.size() == 1 && f[0] == "ok") {
      rec.failure.clear();
    } else if (f.size() == 2 && f[0] == "err") {
      rec.failure = decode_token(f[1]);
      if (rec.failure.empty()) throw std::runtime_error("empty 'failure err'");
    } else {
      throw std::runtime_error("bad failure line");
    }
  }
  rec.final_robots = parse_robots(in, "final");
  in.fields("end", 0);
  if (!in.at_end()) {
    throw std::runtime_error("content after end marker: '" + std::string(in.line()) + "'");
  }
  return rec;
}

}  // namespace

Recording recording_parse(const std::string& text) {
  LineReader in(text);
  // The name parsers shared with other callers (event kinds, diagnoses,
  // color letters) throw std::invalid_argument; both kinds leave as the
  // documented std::runtime_error naming the line.
  const auto at_line = [&in](const std::exception& e) {
    return std::runtime_error("lumirec line " + std::to_string(in.lineno()) + ": " + e.what());
  };
  try {
    return parse_recording(in);
  } catch (const std::invalid_argument& e) {
    throw at_line(e);
  } catch (const std::runtime_error& e) {
    throw at_line(e);
  }
}

bool recording_write(const std::string& path, const Recording& rec) {
  return write_file_atomic(path, recording_serialize(rec));
}

std::optional<Recording> recording_load(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) return std::nullopt;
  return recording_parse(*text);
}

}  // namespace lumi::obs
