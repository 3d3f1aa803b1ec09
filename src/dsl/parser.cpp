#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/core/text.hpp"
#include "src/dsl/dsl.hpp"

namespace lumi::dsl {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::invalid_argument("dsl parse error (line " + std::to_string(line) + "): " + what);
}

/// The whole token must be one int, quoted back when it is not.
int parse_int(const std::string& s, int line, const std::string& what) {
  int value = 0;
  if (!parse_number(s, value)) fail(line, what + " expects an integer, got '" + s + "'");
  return value;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok.starts_with("#")) break;
    tokens.push_back(tok);
  }
  return tokens;
}

Color parse_color(const std::string& s, int line) {
  if (s.size() != 1) fail(line, "expected a single-letter color, got '" + s + "'");
  try {
    return color_from_letter(s[0]);
  } catch (const std::invalid_argument&) {
    fail(line, "unknown color '" + s + "'");
  }
}

CellPattern parse_pattern(const std::string& s, int line) {
  if (s == "empty") return CellPattern::empty();
  if (s == "wall") return CellPattern::wall();
  if (s == "gray") return CellPattern::gray();
  if (s == "any") return CellPattern::any();
  if (s.size() >= 2 && s.front() == '{' && s.back() == '}') {
    ColorMultiset ms;
    std::string inner = s.substr(1, s.size() - 2);
    std::istringstream in(inner);
    std::string item;
    while (std::getline(in, item, ',')) {
      if (item.empty()) fail(line, "empty color in multiset '" + s + "'");
      const Color color = parse_color(item, line);
      if (ms.count(color) >= kMaxRobotsPerNode) {
        fail(line, "multiset '" + s + "' lists a color more than " +
                       std::to_string(kMaxRobotsPerNode) + " times");
      }
      ms.add(color);
    }
    if (ms.empty()) fail(line, "empty multiset '" + s + "'; use 'empty' instead");
    return CellPattern::exactly(ms);
  }
  fail(line, "unknown cell pattern '" + s + "'");
}

Vec parse_position(const std::string& s, int line) {
  // "(row,col)"
  if (s.size() < 5 || s.front() != '(' || s.back() != ')') fail(line, "bad position '" + s + "'");
  const std::string inner = s.substr(1, s.size() - 2);
  const std::size_t comma = inner.find(',');
  if (comma == std::string::npos || inner.find(',', comma + 1) != std::string::npos) {
    fail(line, "bad position '" + s + "'");
  }
  return Vec{parse_int(inner.substr(0, comma), line, "position row"),
             parse_int(inner.substr(comma + 1), line, "position col")};
}

void parse_rule(const std::vector<std::string>& tokens, int line, Algorithm& alg) {
  // rule <label> self=<color> [<cell>=<pattern> ...] -> <color>,<move>
  if (tokens.size() < 5) fail(line, "rule needs a label, self=, -> and an action");
  Rule rule;
  rule.label = tokens[1];
  std::size_t i = 2;
  if (!tokens[i].starts_with("self=")) fail(line, "expected self=<color>");
  rule.self = parse_color(tokens[i].substr(5), line);
  rule.new_color = rule.self;
  i += 1;
  bool saw_center = false;
  for (; i < tokens.size() && tokens[i] != "->"; ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) fail(line, "expected <cell>=<pattern>, got '" + tokens[i] + "'");
    Vec offset;
    try {
      offset = offset_from_name(tokens[i].substr(0, eq));
    } catch (const std::invalid_argument& e) {
      fail(line, e.what());
    }
    const CellPattern pattern = parse_pattern(tokens[i].substr(eq + 1), line);
    if (offset == Vec{0, 0}) {
      if (pattern.kind() != CellPattern::Kind::Multiset) {
        fail(line, "center cell C must be a multiset");
      }
      saw_center = true;
    }
    rule.cells.emplace_back(offset, pattern);
  }
  if (i + 1 >= tokens.size() || tokens[i] != "->") fail(line, "missing '->' action");
  const std::string& action = tokens[i + 1];
  const std::size_t comma = action.find(',');
  if (comma == std::string::npos) fail(line, "action must be <color>,<move>");
  rule.new_color = parse_color(action.substr(0, comma), line);
  const std::string move = action.substr(comma + 1);
  if (move == "Idle") {
    rule.move = std::nullopt;
  } else if (move == "N") {
    rule.move = Dir::North;
  } else if (move == "E") {
    rule.move = Dir::East;
  } else if (move == "S") {
    rule.move = Dir::South;
  } else if (move == "W") {
    rule.move = Dir::West;
  } else {
    fail(line, "unknown movement '" + move + "'");
  }
  if (!saw_center) {
    rule.cells.emplace_back(Vec{0, 0}, CellPattern::exactly(ColorMultiset{rule.self}));
  }
  alg.rules.push_back(std::move(rule));
}

}  // namespace

Algorithm parse(const std::string& text) {
  Algorithm alg;
  alg.min_rows = 2;
  alg.min_cols = 3;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  bool got_name = false;
  while (std::getline(in, raw)) {
    line_no += 1;
    // Accept CRLF line endings and trailing whitespace: files authored on
    // other platforms or touched by editors must parse identically.
    while (!raw.empty() && (raw.back() == '\r' || raw.back() == ' ' || raw.back() == '\t')) {
      raw.pop_back();
    }
    const std::vector<std::string> tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const std::string& head = tokens[0];
    if (head == "algorithm") {
      if (tokens.size() != 2) fail(line_no, "algorithm expects one name");
      alg.name = tokens[1];
      got_name = true;
    } else if (head == "section") {
      if (tokens.size() != 2) fail(line_no, "section expects one value");
      alg.paper_section = tokens[1];
    } else if (head == "model") {
      if (tokens.size() != 2) fail(line_no, "model expects one value");
      if (tokens[1] == "fsync") {
        alg.model = Synchrony::Fsync;
      } else if (tokens[1] == "ssync") {
        alg.model = Synchrony::Ssync;
      } else if (tokens[1] == "async") {
        alg.model = Synchrony::Async;
      } else {
        fail(line_no, "unknown model '" + tokens[1] + "'");
      }
    } else if (head == "phi") {
      if (tokens.size() != 2) fail(line_no, "phi expects one value");
      alg.phi = parse_int(tokens[1], line_no, "phi");
    } else if (head == "colors") {
      if (tokens.size() != 2) fail(line_no, "colors expects one value");
      alg.num_colors = parse_int(tokens[1], line_no, "colors");
    } else if (head == "chirality") {
      if (tokens.size() != 2) fail(line_no, "chirality expects one value");
      if (tokens[1] == "common") {
        alg.chirality = Chirality::Common;
      } else if (tokens[1] == "none") {
        alg.chirality = Chirality::None;
      } else {
        fail(line_no, "unknown chirality '" + tokens[1] + "'");
      }
    } else if (head == "min-grid") {
      if (tokens.size() != 3) fail(line_no, "min-grid expects rows and cols");
      alg.min_rows = parse_int(tokens[1], line_no, "min-grid rows");
      alg.min_cols = parse_int(tokens[2], line_no, "min-grid cols");
    } else if (head == "init") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].rfind('=');
        if (eq == std::string::npos) fail(line_no, "init entries look like (r,c)=C");
        const Vec pos = parse_position(tokens[i].substr(0, eq), line_no);
        alg.initial_robots.emplace_back(pos, parse_color(tokens[i].substr(eq + 1), line_no));
      }
    } else if (head == "rule") {
      parse_rule(tokens, line_no, alg);
    } else {
      fail(line_no, "unknown declaration '" + head + "'");
    }
  }
  if (!got_name) throw std::invalid_argument("dsl parse error: missing 'algorithm <name>'");
  return alg;
}

}  // namespace lumi::dsl
