#include "src/campaign/checkpoint.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace lumi::campaign {

namespace {

constexpr const char* kMagic = "lumi-campaign-checkpoint";
// v2: the cell record carries the topology spec token (between the
// scheduler and section fields); v1 files predate the topology axis and are
// rejected rather than guessed at.
constexpr int kVersion = 2;
constexpr const char* kStatNames[] = {"instants", "activations", "moves", "color_changes",
                                      "visited"};

LongStat* stat_by_name(CellAccumulator& acc, const std::string& name) {
  LongStat* stats[] = {&acc.instants, &acc.activations, &acc.moves, &acc.color_changes,
                       &acc.visited};
  for (std::size_t i = 0; i < std::size(kStatNames); ++i) {
    if (name == kStatNames[i]) return stats[i];
  }
  return nullptr;
}

/// Sections may contain arbitrary bytes; encode them into a single
/// whitespace-free token ('%XX' for '%' and anything outside 0x21..0x7e).
std::string encode_token(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (c == '%' || c < 0x21 || c > 0x7e) {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    } else {
      out.push_back(raw);
    }
  }
  return out;
}

std::string decode_token(const std::string& s) {
  const auto hex_digit = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 2 >= s.size()) throw std::runtime_error("checkpoint: truncated %-escape");
    const int hi = hex_digit(s[i + 1]);
    const int lo = hex_digit(s[i + 2]);
    if (hi < 0 || lo < 0) {
      throw std::runtime_error("checkpoint: bad %-escape '" + s.substr(i, 3) + "'");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

void serialize_stat(std::ostringstream& out, const char* name, const LongStat& s) {
  out << "stat " << name << ' ' << s.count << ' ' << s.sum << ' ' << s.sum_squares << ' ' << s.min
      << ' ' << s.max;
  for (long h : s.histogram) out << ' ' << h;
  out << '\n';
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("checkpoint: line " + std::to_string(line) + ": " + what);
}

/// Reads a record count: decimal digits only, so "-1" cannot wrap to
/// SIZE_MAX.  A count only frames the records that follow and never sizes
/// an allocation: containers grow as records parse, so an oversized count
/// fails at the first missing record.
bool read_count(std::istringstream& ls, std::size_t& n) {
  std::string tok;
  if (!(ls >> tok)) return false;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, n);
  return ec == std::errc{} && ptr == end;
}

/// Exactly 16 hex digits, as checkpoint_serialize prints the fingerprint.
bool read_fingerprint(std::istringstream& ls, std::uint64_t& fp) {
  std::string hex;
  if (!(ls >> hex) || hex.size() != 16) return false;
  const char* end = hex.data() + hex.size();
  const auto [ptr, ec] = std::from_chars(hex.data(), end, fp, 16);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::size_t Checkpoint::jobs_done() const {
  std::size_t n = 0;
  for (const CheckpointCell& c : cells) n += c.seeds_done.size();
  return n;
}

std::uint64_t expansion_fingerprint(const Expansion& expansion) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  mix("v2|" + std::to_string(expansion.options.max_steps) + '|' +
      std::to_string(expansion.options.record_trace) + '|' +
      std::to_string(expansion.options.require_unique_actions) + '|' +
      std::to_string(expansion.cells.size()));
  for (const Cell& cell : expansion.cells) {
    mix('|' + cell.section + '|' + std::to_string(cell.rows) + 'x' + std::to_string(cell.cols) +
        '|' + cell.topo + '|' + to_string(cell.sched));
  }
  return h;
}

Checkpoint make_checkpoint(const Expansion& expansion) {
  Checkpoint out;
  out.fingerprint = expansion_fingerprint(expansion);
  out.cells.reserve(expansion.cells.size());
  for (const Cell& cell : expansion.cells) out.cells.push_back({cell, {}, {}});
  return out;
}

std::string checkpoint_serialize(const Checkpoint& checkpoint) {
  std::ostringstream out;
  out << kMagic << " v" << kVersion << '\n';
  char fp[24];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(checkpoint.fingerprint));
  out << "fingerprint " << fp << '\n';
  out << "cells " << checkpoint.cells.size() << '\n';
  for (std::size_t i = 0; i < checkpoint.cells.size(); ++i) {
    const CheckpointCell& c = checkpoint.cells[i];
    out << "cell " << i << ' ' << c.cell.rows << ' ' << c.cell.cols << ' '
        << to_string(c.cell.sched) << ' ' << encode_token(c.cell.topo) << ' '
        << encode_token(c.cell.section) << '\n';
    out << "acc " << c.acc.runs << ' ' << c.acc.terminated << ' ' << c.acc.explored_all << ' '
        << c.acc.failures << '\n';
    const LongStat* stats[] = {&c.acc.instants, &c.acc.activations, &c.acc.moves,
                               &c.acc.color_changes, &c.acc.visited};
    for (std::size_t s = 0; s < std::size(kStatNames); ++s) {
      serialize_stat(out, kStatNames[s], *stats[s]);
    }
    out << "seeds " << c.seeds_done.size();
    for (unsigned seed : c.seeds_done) out << ' ' << seed;
    out << '\n';
  }
  out << "end\n";
  return out.str();
}

Checkpoint checkpoint_parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  const auto next_line = [&]() -> std::istringstream {
    if (!std::getline(in, line)) fail(lineno, "unexpected end of file");
    ++lineno;
    return std::istringstream(line);
  };
  const auto expect_keyword = [&](std::istringstream& ls, const char* want) {
    std::string got;
    if (!(ls >> got) || got != want) fail(lineno, std::string("expected '") + want + "'");
  };

  Checkpoint out;
  {
    std::istringstream ls = next_line();
    expect_keyword(ls, kMagic);
    std::string want = "v";
    want += std::to_string(kVersion);
    std::string version;
    if (!(ls >> version) || version != want) {
      fail(lineno, "unsupported version '" + version + "'");
    }
  }
  {
    std::istringstream ls = next_line();
    expect_keyword(ls, "fingerprint");
    if (!read_fingerprint(ls, out.fingerprint)) fail(lineno, "bad fingerprint");
  }
  std::size_t num_cells = 0;
  {
    std::istringstream ls = next_line();
    expect_keyword(ls, "cells");
    if (!read_count(ls, num_cells)) fail(lineno, "bad cell count");
  }
  for (std::size_t i = 0; i < num_cells; ++i) {
    CheckpointCell c;
    {
      std::istringstream ls = next_line();
      expect_keyword(ls, "cell");
      std::size_t index = 0;
      std::string sched, topo, section;
      if (!(ls >> index >> c.cell.rows >> c.cell.cols >> sched >> topo >> section) ||
          index != i) {
        fail(lineno, "bad cell record");
      }
      const auto kind = sched_from_name(sched);
      if (!kind) fail(lineno, "unknown scheduler '" + sched + "'");
      c.cell.sched = *kind;
      c.cell.topo = decode_token(topo);
      c.cell.section = decode_token(section);
    }
    {
      std::istringstream ls = next_line();
      expect_keyword(ls, "acc");
      if (!(ls >> c.acc.runs >> c.acc.terminated >> c.acc.explored_all >> c.acc.failures)) {
        fail(lineno, "bad accumulator record");
      }
    }
    for (const char* name : kStatNames) {
      std::istringstream ls = next_line();
      expect_keyword(ls, "stat");
      std::string got;
      if (!(ls >> got) || got != name) fail(lineno, std::string("expected stat ") + name);
      LongStat* stat = stat_by_name(c.acc, got);
      if (!(ls >> stat->count >> stat->sum >> stat->sum_squares >> stat->min >> stat->max)) {
        fail(lineno, "bad stat record");
      }
      for (long& h : stat->histogram) {
        if (!(ls >> h)) fail(lineno, "bad histogram");
      }
    }
    {
      std::istringstream ls = next_line();
      expect_keyword(ls, "seeds");
      std::size_t k = 0;
      if (!read_count(ls, k)) fail(lineno, "bad seed count");
      for (std::size_t s = 0; s < k; ++s) {
        unsigned seed = 0;
        if (!(ls >> seed)) fail(lineno, "bad seed list");
        c.seeds_done.push_back(seed);
      }
      for (std::size_t s = 1; s < c.seeds_done.size(); ++s) {
        if (c.seeds_done[s - 1] >= c.seeds_done[s]) fail(lineno, "seeds not strictly ascending");
      }
    }
    out.cells.push_back(std::move(c));
  }
  {
    std::istringstream ls = next_line();
    expect_keyword(ls, "end");
  }
  return out;
}

bool checkpoint_write(const std::string& path, const Checkpoint& checkpoint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << checkpoint_serialize(checkpoint);
    out.flush();
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<Checkpoint> checkpoint_load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Distinguish "no checkpoint yet" from "checkpoint present but
    // unreadable": restarting from scratch over a real checkpoint (and then
    // overwriting it) must never happen silently.
    std::error_code ec;
    if (std::filesystem::exists(path, ec) && !ec) {
      throw std::runtime_error("checkpoint_load: '" + path + "' exists but cannot be read");
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return checkpoint_parse(buf.str());
}

void checkpoint_merge(Checkpoint& into, const Checkpoint& other) {
  if (into.fingerprint != other.fingerprint) {
    throw std::invalid_argument("checkpoint_merge: fingerprints differ (different matrices)");
  }
  if (into.cells.size() != other.cells.size()) {
    throw std::invalid_argument("checkpoint_merge: cell count mismatch");
  }
  for (std::size_t i = 0; i < into.cells.size(); ++i) {
    CheckpointCell& a = into.cells[i];
    const CheckpointCell& b = other.cells[i];
    if (!(a.cell == b.cell)) throw std::invalid_argument("checkpoint_merge: cell list mismatch");
    std::vector<unsigned> merged;
    merged.reserve(a.seeds_done.size() + b.seeds_done.size());
    std::size_t x = 0, y = 0;
    while (x < a.seeds_done.size() || y < b.seeds_done.size()) {
      if (y == b.seeds_done.size() ||
          (x < a.seeds_done.size() && a.seeds_done[x] < b.seeds_done[y])) {
        merged.push_back(a.seeds_done[x++]);
      } else if (x == a.seeds_done.size() || b.seeds_done[y] < a.seeds_done[x]) {
        merged.push_back(b.seeds_done[y++]);
      } else {
        throw std::invalid_argument("checkpoint_merge: overlapping shards (cell " +
                                    to_string(a.cell) + " seed " +
                                    std::to_string(a.seeds_done[x]) + " in both)");
      }
    }
    a.seeds_done = std::move(merged);
    a.acc.merge(b.acc);
  }
}

CampaignSummary checkpoint_summary(const Checkpoint& checkpoint) {
  CampaignSummary summary;
  summary.cells.reserve(checkpoint.cells.size());
  for (const CheckpointCell& c : checkpoint.cells) {
    summary.cells.push_back({c.cell, c.acc});
    summary.total.merge(c.acc);
  }
  summary.jobs = static_cast<std::size_t>(summary.total.runs);
  summary.threads = 0;
  summary.wall_seconds = 0.0;
  return summary;
}

}  // namespace lumi::campaign
