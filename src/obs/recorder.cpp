#include "src/obs/recorder.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "src/engine/runner.hpp"

namespace lumi::obs {
namespace {

// Token escaping for single-space-separated fields, same scheme as the
// checkpoint format (duplicated rather than shared: obs must not depend on
// campaign).  '%' and anything outside printable-ASCII-minus-space becomes
// %XX.  An empty string serializes as a bare "%", which the escaper never
// emits otherwise ('%' itself encodes as "%25").
std::string encode_token(const std::string& s) {
  if (s.empty()) return "%";
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c != '%' && c > 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X", c);
      out.append(buf);
    }
  }
  return out;
}

std::string decode_token(const std::string& s) {
  if (s == "%") return "";
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) throw std::runtime_error("truncated %-escape in token");
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      throw std::runtime_error("bad hex digit in %-escape");
    };
    out.push_back(static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2])));
    i += 2;
  }
  return out;
}

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

/// Line-oriented reader with keyword-anchored parse errors.  Errors carry no
/// line number: recording_parse prefixes the current one to every error.
class Reader {
 public:
  explicit Reader(const std::string& text) : in_(text) {}

  /// Next line, which must start with `key` followed by a space (or be
  /// exactly `key`); returns the remainder after the space.
  std::string expect(const std::string& key) {
    std::string line = next_line(key);
    if (line == key) return "";
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ') {
      return line.substr(key.size() + 1);
    }
    throw std::runtime_error("expected '" + key + " ...', got '" + line + "'");
  }

  /// Peeks whether the next line starts with `key`.
  bool peek_is(const std::string& key) {
    if (!peeked_) {
      if (!std::getline(in_, peek_line_)) return false;
      if (!peek_line_.empty() && peek_line_.back() == '\r') peek_line_.pop_back();
      peeked_ = true;
    }
    return peek_line_ == key ||
           (peek_line_.size() > key.size() && peek_line_.compare(0, key.size(), key) == 0 &&
            peek_line_[key.size()] == ' ');
  }

  std::string raw_line() { return next_line("<line>"); }

  int lineno() const { return lineno_; }

 private:
  std::string next_line(const std::string& wanted) {
    ++lineno_;
    if (peeked_) {
      peeked_ = false;
      return peek_line_;
    }
    std::string line;
    if (!std::getline(in_, line)) {
      throw std::runtime_error("unexpected end of file, wanted '" + wanted + "'");
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
  }

  std::istringstream in_;
  std::string peek_line_;
  bool peeked_ = false;
  int lineno_ = 0;
};

/// Splits `rest` on single spaces into exactly `n` fields.
std::vector<std::string> fields(const std::string& rest, std::size_t n, const char* what) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= rest.size()) {
    const std::size_t space = rest.find(' ', start);
    if (space == std::string::npos) {
      out.push_back(rest.substr(start));
      break;
    }
    out.push_back(rest.substr(start, space - start));
    start = space + 1;
  }
  if (out.size() != n) {
    throw std::runtime_error(std::string("'") + what + "' wants " + std::to_string(n) +
                             " fields, got " + std::to_string(out.size()));
  }
  return out;
}

long long to_ll(const std::string& s, const char* what) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad integer '") + s + "' in " + what);
  }
}

/// A record count.  It only frames the records that follow and never sizes
/// an allocation: vectors grow as records parse, so an oversized count fails
/// at the first missing record.
long long to_count(const std::string& s, const char* what) {
  const long long n = to_ll(s, what);
  if (n < 0) throw std::runtime_error(std::string("negative count '") + s + "' in " + what);
  return n;
}

/// Exactly 16 hex digits, as recording_serialize prints a hash.
std::uint64_t to_hash(const std::string& s, const char* what) {
  std::uint64_t h = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, h, 16);
  if (s.size() != 16 || ec != std::errc{} || ptr != end) {
    throw std::runtime_error(std::string("'") + s + "' in " + what + " is not 16 hex digits");
  }
  return h;
}

bool to_bool(const std::string& s, const char* what) {
  if (s == "0") return false;
  if (s == "1") return true;
  throw std::runtime_error(std::string("bad flag '") + s + "' in " + what);
}

char single_char(const std::string& s, const char* what) {
  if (s.size() != 1) {
    throw std::runtime_error(std::string("'") + s + "' in " + what +
                             " is not a single character");
  }
  return s[0];
}

void serialize_robots(std::ostringstream& out, const std::vector<Robot>& robots) {
  for (std::size_t i = 0; i < robots.size(); ++i) {
    out << "robot " << i << ' ' << robots[i].pos.row << ' ' << robots[i].pos.col << ' '
        << color_letter(robots[i].color) << '\n';
  }
}

std::vector<Robot> parse_robots(Reader& in, long long n, const char* what) {
  std::vector<Robot> robots;
  for (long long i = 0; i < n; ++i) {
    const auto f = fields(in.expect("robot"), 4, "robot");
    if (to_ll(f[0], what) != i) {
      throw std::runtime_error(std::string(what) + " robots out of order");
    }
    robots.push_back(Robot{.pos = {static_cast<int>(to_ll(f[1], what)),
                                   static_cast<int>(to_ll(f[2], what))},
                           .color = color_from_letter(single_char(f[3], what))});
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

Recording make_recording(const Recorder& rec, const RunResult& result) {
  Recording out;
  out.options = rec.options();
  out.prov = rec.provenance();
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
  std::vector<std::string> alg_lines;
  {
    std::istringstream alg(rec.prov.algorithm_text);
    std::string line;
    while (std::getline(alg, line)) alg_lines.push_back(line);
  }
  out << "algorithm " << alg_lines.size() << '\n';
  for (const std::string& line : alg_lines) out << line << '\n';
  out << "init " << rec.initial.size() << '\n';
  serialize_robots(out, rec.initial);
  out << "diagnosis " << to_string(rec.diagnosis) << '\n';
  if (rec.cycle.has_value()) {
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(rec.cycle->hash));
    out << "cycle " << rec.cycle->start << ' ' << rec.cycle->length << ' ' << hex << '\n';
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

Recording parse_recording(Reader& in) {
  Recording rec;
  rec.version = static_cast<int>(to_ll(in.expect("lumirec"), "lumirec"));
  if (rec.version != 1) {
    throw std::runtime_error("unsupported lumirec version " + std::to_string(rec.version));
  }
  const long long capacity = to_ll(in.expect("capacity"), "capacity");
  if (capacity < 1) throw std::runtime_error("capacity must be >= 1");
  rec.options.capacity = static_cast<std::size_t>(capacity);
  rec.options.detect_cycles = to_bool(in.expect("detect-cycles"), "detect-cycles");
  rec.prov.section = decode_token(in.expect("section"));
  {
    const auto f = fields(in.expect("scheduler"), 2, "scheduler");
    rec.prov.scheduler = decode_token(f[0]);
    rec.prov.seed = static_cast<unsigned>(to_ll(f[1], "scheduler seed"));
  }
  {
    const auto f = fields(in.expect("dims"), 2, "dims");
    rec.prov.rows = static_cast<int>(to_ll(f[0], "dims"));
    rec.prov.cols = static_cast<int>(to_ll(f[1], "dims"));
  }
  rec.prov.topo_spec = decode_token(in.expect("topology"));
  rec.prov.max_steps = static_cast<long>(to_ll(in.expect("max-steps"), "max-steps"));
  rec.prov.require_unique_actions = to_bool(in.expect("unique-actions"), "unique-actions");
  {
    const long long n = to_count(in.expect("algorithm"), "algorithm");
    std::string text_out;
    for (long long i = 0; i < n; ++i) {
      text_out += in.raw_line();
      text_out += '\n';
    }
    rec.prov.algorithm_text = std::move(text_out);
  }
  rec.initial = parse_robots(in, to_count(in.expect("init"), "init"), "init");
  rec.diagnosis = diagnosis_from_name(in.expect("diagnosis"));
  if (in.peek_is("cycle")) {
    const auto f = fields(in.expect("cycle"), 3, "cycle");
    Recorder::CycleWitness w;
    w.start = static_cast<long>(to_ll(f[0], "cycle"));
    w.length = static_cast<long>(to_ll(f[1], "cycle"));
    w.hash = to_hash(f[2], "cycle");
    rec.cycle = w;
  }
  rec.events_seen = to_count(in.expect("events-seen"), "events-seen");
  const long long kept = to_count(in.expect("events"), "events");
  for (long long i = 0; i < kept; ++i) {
    const auto f = fields(in.expect("ev"), 9, "ev");
    RecordedEvent ev;
    ev.instant = static_cast<long>(to_ll(f[0], "ev"));
    ev.kind = event_kind_from_name(f[1]);
    ev.robot = static_cast<int>(to_ll(f[2], "ev"));
    ev.rule_index = static_cast<int>(to_ll(f[3], "ev"));
    ev.sym.rot = static_cast<std::uint8_t>(to_ll(f[4], "ev"));
    ev.sym.mirror = to_bool(f[5], "ev");
    ev.color_before = color_from_letter(single_char(f[6], "ev"));
    ev.color_after = color_from_letter(single_char(f[7], "ev"));
    ev.move = move_from_char(single_char(f[8], "ev"));
    rec.events.push_back(ev);
  }
  {
    const auto f = fields(in.expect("outcome"), 2, "outcome");
    rec.terminated = to_bool(f[0], "outcome");
    rec.explored_all = to_bool(f[1], "outcome");
  }
  {
    const auto f = fields(in.expect("stats"), 4, "stats");
    rec.instants = static_cast<long>(to_ll(f[0], "stats"));
    rec.activations = static_cast<long>(to_ll(f[1], "stats"));
    rec.moves = static_cast<long>(to_ll(f[2], "stats"));
    rec.color_changes = static_cast<long>(to_ll(f[3], "stats"));
  }
  {
    const std::string rest = in.expect("failure");
    if (rest == "ok") {
      rec.failure.clear();
    } else if (rest.starts_with("err ")) {
      rec.failure = decode_token(rest.substr(4));
      if (rec.failure.empty()) throw std::runtime_error("empty 'failure err'");
    } else {
      throw std::runtime_error("bad failure line '" + rest + "'");
    }
  }
  rec.final_robots = parse_robots(in, to_count(in.expect("final"), "final"), "final");
  if (!in.expect("end").empty()) throw std::runtime_error("malformed end marker");
  return rec;
}

}  // namespace

Recording recording_parse(const std::string& text) {
  Reader in(text);
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
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << recording_serialize(rec);
    out.flush();
    if (!out.good()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<Recording> recording_load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return recording_parse(buf.str());
}

}  // namespace lumi::obs
