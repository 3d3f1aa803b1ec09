#include "src/core/compiled.hpp"

#include <mutex>
#include <string>
#include <unordered_map>

namespace lumi {

namespace {

/// Exact structural key of everything matching semantics depend on.  Binary
/// serialization (not to_string) so distinct rule sets can never collide.
std::string matcher_fingerprint(const Algorithm& alg) {
  std::string fp;
  fp.reserve(16 + alg.rules.size() * 64);
  auto byte = [&fp](int v) { fp.push_back(static_cast<char>(v)); };
  auto word = [&fp](std::uint16_t v) {
    fp.push_back(static_cast<char>(v & 0xFF));
    fp.push_back(static_cast<char>(v >> 8));
  };
  byte(alg.phi);
  byte(static_cast<int>(alg.chirality));
  for (const Rule& rule : alg.rules) {
    byte(static_cast<int>(rule.self));
    byte(static_cast<int>(rule.new_color));
    byte(rule.move.has_value() ? 1 + static_cast<int>(*rule.move) : 0);
    byte(static_cast<int>(rule.cells.size()));
    for (const auto& [offset, pattern] : rule.cells) {
      byte(offset.row + kMaxPhi);
      byte(offset.col + kMaxPhi);
      byte(static_cast<int>(pattern.kind()));
      word(pattern.multiset().raw());
    }
  }
  return fp;
}

/// The cell states (bit `state` set) in which `pattern` can never match.
/// Only what a match rules out is recorded — the prefilter must never reject
/// a matching snapshot; the dense walk still decides exact multiset equality.
unsigned unmatchable_states(const CellPattern& pattern) {
  constexpr unsigned kEmpty = 1u << 0;
  constexpr unsigned kOccupied = 1u << 1;
  constexpr unsigned kWall = 1u << 2;
  switch (pattern.kind()) {
    case CellPattern::Kind::Empty: return kOccupied | kWall;
    case CellPattern::Kind::Wall: return kEmpty | kOccupied;
    case CellPattern::Kind::EmptyOrWall: return kOccupied;
    case CellPattern::Kind::Multiset:
      return pattern.multiset().empty() ? kOccupied | kWall : kEmpty | kWall;
    case CellPattern::Kind::Any: return 0;
  }
  return 0;
}

}  // namespace

SnapshotPlanes snapshot_planes(const Snapshot& snap, int kernel_size) {
  SnapshotPlanes planes;
  for (int w = 0; w < kernel_size; ++w) {
    const CellContent& cell = snap.cells[static_cast<std::size_t>(w)];
    if (cell.wall) {
      planes.wall |= static_cast<std::uint16_t>(1u << w);
    } else if (!cell.robots.empty()) {
      planes.occupied |= static_cast<std::uint16_t>(1u << w);
    }
  }
  return planes;
}

CompiledAlgorithm::CompiledAlgorithm(const Algorithm& alg)
    : phi_(alg.phi),
      kernel_size_(ViewKernel::get(alg.phi).size()),
      syms_(alg.symmetries()) {
  const ViewKernel& kernel = ViewKernel::get(phi_);
  const std::span<const Vec> offsets = kernel.offsets();
  const std::size_t ks = static_cast<std::size_t>(kernel_size_);
  const std::size_t nsyms = syms_.size();
  const std::size_t word_size = ks * kCellStates;
  std::array<CellPattern, kMaxKernelSize> local{};
  std::array<unsigned, kMaxKernelSize> never{};
  for (std::size_t ri = 0; ri < alg.rules.size(); ++ri) {
    const Rule& rule = alg.rules[ri];
    for (std::size_t i = 0; i < ks; ++i) {
      local[i] = rule.pattern_at(offsets[i]);
      never[i] = unmatchable_states(local[i]);
    }
    std::vector<CompiledRule>& rules = by_color_[static_cast<std::size_t>(rule.self)];
    GuardGroup& group = groups_[static_cast<std::size_t>(rule.self)];
    CompiledRule compiled;
    compiled.rule_index = static_cast<int>(ri);
    compiled.new_color = rule.new_color;
    compiled.patterns.resize(nsyms * ks);
    for (std::size_t s = 0; s < nsyms; ++s) {
      const Sym sym = syms_[s];
      const std::span<const std::uint8_t> perm = kernel.permutation(sym);
      const std::size_t lane = rules.size() * nsyms + s;
      const std::size_t word = lane / kGuardLanesPerWord;
      const std::uint64_t bit = std::uint64_t{1} << (lane % kGuardLanesPerWord);
      if (group.reject.size() < (word + 1) * word_size) {
        group.reject.resize((word + 1) * word_size, 0);
      }
      std::uint64_t* reject = group.reject.data() + word * word_size;
      // The naive matcher checks pattern_at(offsets[i]) against the cell at
      // index_of(apply(sym, offsets[i])); the permutation is a bijection, so
      // scattering each pattern to its world slot yields the dense row, and
      // its unmatchable states go to the same slot of the prefilter.
      for (std::size_t i = 0; i < ks; ++i) {
        compiled.patterns[s * ks + perm[i]] = local[i];
        for (std::size_t state = 0; state < kCellStates; ++state) {
          if ((never[i] >> state) & 1u) reject[perm[i] * kCellStates + state] |= bit;
        }
      }
      compiled.move_by_sym[s] =
          rule.move.has_value() ? static_cast<std::int8_t>(apply(sym, *rule.move))
                                : static_cast<std::int8_t>(-1);
    }
    rules.push_back(std::move(compiled));
    group.lanes = rules.size() * nsyms;
  }
  // Lanes past the last real one in each group's final word reject in every
  // state of cell 0, so the matcher needs no bound check per word.
  for (GuardGroup& group : groups_) {
    const std::size_t used = group.lanes % kGuardLanesPerWord;
    if (used == 0) continue;
    std::uint64_t* cell0 = group.reject.data() + group.lanes / kGuardLanesPerWord * word_size;
    for (std::size_t state = 0; state < kCellStates; ++state) {
      cell0[state] |= ~std::uint64_t{0} << used;
    }
  }
}

std::shared_ptr<const CompiledAlgorithm> CompiledAlgorithm::get(const Algorithm& alg) {
  static std::mutex mu;
  static std::unordered_map<std::string, std::shared_ptr<const CompiledAlgorithm>> cache;
  const std::string key = matcher_fingerprint(alg);
  std::lock_guard lock(mu);
  std::shared_ptr<const CompiledAlgorithm>& slot = cache[key];
  if (!slot) slot = std::make_shared<const CompiledAlgorithm>(alg);
  return slot;
}

}  // namespace lumi
