#include "src/campaign/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/core/text.hpp"

namespace lumi::campaign {

namespace {

constexpr const char* kMagic = "lumi-campaign-checkpoint";
// v2: the cell record carries the topology spec token (between the
// scheduler and section fields); v1 files predate the topology axis and are
// rejected rather than guessed at.
constexpr std::string_view kVersion = "v2";
constexpr const char* kStatNames[] = {"instants", "activations", "moves", "color_changes",
                                      "visited"};

/// The accumulator's statistics, in kStatNames order.
template <class Acc>
auto stats_of(Acc& acc) {
  return std::array{&acc.instants, &acc.activations, &acc.moves, &acc.color_changes,
                    &acc.visited};
}

/// Every field a run can write, and only those: counts and outcomes in
/// [0, runs], one sample per run in exactly one bucket, an empty stream all
/// zeros, 0 <= min <= max (percentile() clamps to them), and a sum in
/// [count * min, count * max].  CellAccumulator::add and merge keep all of
/// this true, so every written checkpoint passes.
CheckpointCell parse_cell(LineReader& in, std::size_t index) {
  CheckpointCell c;
  {
    const auto f = in.fields("cell", 6);
    if (in.number<std::size_t>(f[0]) != index) throw std::runtime_error("cell out of order");
    c.cell.rows = in.number<int>(f[1]);
    c.cell.cols = in.number<int>(f[2]);
    const auto kind = sched_from_name(std::string(f[3]));
    if (!kind) throw std::runtime_error("unknown scheduler '" + std::string(f[3]) + "'");
    c.cell.sched = *kind;
    c.cell.topo = decode_token(f[4]);
    c.cell.section = decode_token(f[5]);
  }
  CellAccumulator& acc = c.acc;
  {
    const auto f = in.fields("acc", 4);
    acc.runs = in.number<long>(f[0], 0);
    acc.terminated = in.number<long>(f[1], 0);
    acc.explored_all = in.number<long>(f[2], 0);
    acc.failures = in.number<long>(f[3], 0);
    if (std::max({acc.terminated, acc.explored_all, acc.failures}) > acc.runs) {
      throw std::runtime_error("accumulator counts outside [0, runs]");
    }
  }
  for (std::size_t k = 0; k < std::size(kStatNames); ++k) {
    const auto f = in.fields("stat", 6 + LongStat{}.histogram.size());
    const char* name = kStatNames[k];
    if (f[0] != name) throw std::runtime_error(std::string("expected stat ") + name);
    LongStat& stat = *stats_of(acc)[k];
    stat.count = in.number<long>(f[1]);
    stat.sum = in.number<long long>(f[2]);
    stat.sum_squares = in.number<long long>(f[3]);
    stat.min = in.number<long>(f[4]);
    stat.max = in.number<long>(f[5]);
    if (stat.count != acc.runs) throw std::runtime_error("stat count differs from the cell's runs");
    long long lo = 0;
    long long hi = 0;
    const bool lo_overflows = __builtin_mul_overflow(stat.count, stat.min, &lo);
    const bool hi_overflows = __builtin_mul_overflow(stat.count, stat.max, &hi);
    const bool fields_ok =
        stat.count == 0
            ? stat.sum == 0 && stat.sum_squares == 0 && stat.min == 0 && stat.max == 0
            : 0 <= stat.min && stat.min <= stat.max && !lo_overflows && lo <= stat.sum &&
                  (hi_overflows || stat.sum <= hi);
    if (!fields_ok) throw std::runtime_error("stat min/max/sums impossible for its count");
    long unbucketed = stat.count;
    for (std::size_t b = 0; b < stat.histogram.size(); ++b) {
      const long h = in.number<long>(f[6 + b], 0);
      if (h > unbucketed) throw std::runtime_error("histogram buckets exceed the count");
      stat.histogram[b] = h;
      unbucketed -= h;
    }
    if (unbucketed != 0) throw std::runtime_error("histogram buckets fall short of the count");
  }
  {
    const auto f = in.fields("seeds");
    // The count only frames the list, and never sizes an allocation.
    if (f.empty() || in.number<std::size_t>(f[0]) != f.size() - 1) {
      throw std::runtime_error("seed count differs from the seeds listed");
    }
    for (std::size_t s = 1; s < f.size(); ++s) {
      c.seeds_done.push_back(in.number<unsigned>(f[s]));
      if (s > 1 && c.seeds_done[s - 2] >= c.seeds_done[s - 1]) {
        throw std::runtime_error("seeds not strictly ascending");
      }
    }
  }
  return c;
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
  out << kMagic << ' ' << kVersion << '\n';
  out << "fingerprint " << hex16(checkpoint.fingerprint) << '\n';
  out << "cells " << checkpoint.cells.size() << '\n';
  for (std::size_t i = 0; i < checkpoint.cells.size(); ++i) {
    const CheckpointCell& c = checkpoint.cells[i];
    out << "cell " << i << ' ' << c.cell.rows << ' ' << c.cell.cols << ' '
        << to_string(c.cell.sched) << ' ' << encode_token(c.cell.topo) << ' '
        << encode_token(c.cell.section) << '\n';
    out << "acc " << c.acc.runs << ' ' << c.acc.terminated << ' ' << c.acc.explored_all << ' '
        << c.acc.failures << '\n';
    for (std::size_t k = 0; k < std::size(kStatNames); ++k) {
      const LongStat& s = *stats_of(c.acc)[k];
      out << "stat " << kStatNames[k] << ' ' << s.count << ' ' << s.sum << ' ' << s.sum_squares
          << ' ' << s.min << ' ' << s.max;
      for (long h : s.histogram) out << ' ' << h;
      out << '\n';
    }
    out << "seeds " << c.seeds_done.size();
    for (unsigned seed : c.seeds_done) out << ' ' << seed;
    out << '\n';
  }
  out << "end\n";
  return out.str();
}

Checkpoint checkpoint_parse(const std::string& text) {
  LineReader in(text);
  try {
    Checkpoint out;
    if (in.field(kMagic) != kVersion) throw std::runtime_error("unsupported version");
    if (!parse_hex16(in.field("fingerprint"), out.fingerprint)) {
      throw std::runtime_error("bad fingerprint");
    }
    const auto num_cells = in.number<std::size_t>(in.field("cells"));
    for (std::size_t i = 0; i < num_cells; ++i) out.cells.push_back(parse_cell(in, i));
    in.fields("end", 0);
    if (!in.at_end()) {
      in.line();
      throw std::runtime_error("content after 'end'");
    }
    return out;
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("checkpoint: line " + std::to_string(in.lineno()) + ": " +
                             e.what());
  }
}

bool checkpoint_write(const std::string& path, const Checkpoint& checkpoint) {
  return write_file_atomic(path, checkpoint_serialize(checkpoint));
}

std::optional<Checkpoint> checkpoint_load(const std::string& path) {
  // An unreadable file throws: restarting from scratch over a real
  // checkpoint (and then overwriting it) must never happen silently.
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) return std::nullopt;
  return checkpoint_parse(*text);
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
