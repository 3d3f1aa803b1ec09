// Compiled matcher: an Algorithm's sparse guards flattened, once, into dense
// kernel-indexed pattern tables so the match inner loop is a straight sweep
// over snapshot cells — no index_of scans, no Rule::pattern_at lookups, no
// per-symmetry offset mapping at match time.
//
// For each rule and each admissible symmetry s the compiler stores a row of
// kernel_size() CellPatterns such that
//
//   guard matches under s  <=>  row[w].matches(snapshot.cells[w]) for all w,
//
// together with the rule's movement premapped into the global frame through
// s.  Rules are grouped by their required self color so matching touches
// only candidates that can possibly fire.  Compilations are cached by a
// structural fingerprint (phi, chirality, rules) and shared read-only across
// threads, so every campaign job running the same algorithm reuses one
// compilation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/view.hpp"

namespace lumi {

/// Recomputes SnapshotPlanes (see view.hpp) from a snapshot's cells.  The
/// hot path reads the masks Snapshot carries instead — take_snapshot_into
/// fills them while touching each cell anyway — so this is the reference
/// builder the differential tests pin that fused fill against.
SnapshotPlanes snapshot_planes(const Snapshot& snap, int kernel_size);

/// One rule compiled against the view kernel.  Field order mirrors Action
/// construction in the matcher.
struct CompiledRule {
  int rule_index = -1;      ///< index into the source Algorithm::rules
  Color new_color = Color::G;
  /// Dense guard rows: patterns[s * kernel_size + w] constrains snapshot
  /// cell w under the s-th admissible symmetry.
  std::vector<CellPattern> patterns;
  /// Movement premapped to the global frame per symmetry; -1 = stay.
  std::array<std::int8_t, 8> move_by_sym{};
};

/// (rule, symmetry) lanes per guard-prefilter word.
inline constexpr std::size_t kGuardLanesPerWord = 64;
/// States a snapshot cell can be in for the prefilter: empty node (0),
/// occupied node (1) or wall (2) — the cell's SnapshotPlanes wall bit * 2 +
/// occupied bit (the two planes never share a bit).
inline constexpr std::size_t kCellStates = 3;

/// Bit-sliced guard prefilter over one self-color rule group.  Lane
/// `r * num_symmetries + s` stands for the group's r-th rule under its s-th
/// admissible symmetry — the rule-then-symmetry order the matcher reports
/// witnesses in — and lanes are packed kGuardLanesPerWord to a word.
/// `reject[(word * kernel_size + w) * kCellStates + state]` holds the lanes
/// of `word` whose dense row can never match cell w in `state`, so ORing
/// one entry per kernel cell judges a whole word of lanes at once.  The
/// lanes past `lanes` in the last word are set in every state of cell 0,
/// so they always reject.
struct GuardGroup {
  std::size_t lanes = 0;  ///< rules * symmetries
  std::vector<std::uint64_t> reject;
};

/// Survivor mask of lane word `word` (bit i = lane word * 64 + i) for a
/// snapshot with these planes: a set bit means the snapshot *may* match the
/// lane's dense row, a clear bit proves it cannot.
inline std::uint64_t guard_pass_mask(const GuardGroup& group, int kernel_size,
                                     SnapshotPlanes planes, std::size_t word) {
  const std::uint64_t* cell =
      group.reject.data() + word * static_cast<std::size_t>(kernel_size) * kCellStates;
  std::uint64_t reject = 0;
  for (int w = 0; w < kernel_size; ++w, cell += kCellStates) {
    reject |= cell[((planes.wall >> w) & 1u) * 2 + ((planes.occupied >> w) & 1u)];
  }
  return ~reject;
}

class CompiledAlgorithm {
 public:
  explicit CompiledAlgorithm(const Algorithm& alg);

  /// Compiles `alg` or returns the shared cached compilation.  Two
  /// algorithms with identical matching semantics (same phi, chirality and
  /// rule list) share one entry; the cache is thread-safe and the returned
  /// object immutable.
  static std::shared_ptr<const CompiledAlgorithm> get(const Algorithm& alg);

  int phi() const { return phi_; }
  int kernel_size() const { return kernel_size_; }
  /// The admissible symmetries, in the same order as Algorithm::symmetries().
  std::span<const Sym> symmetries() const { return syms_; }
  /// Rules whose self color is `self`, preserving source rule order.
  std::span<const CompiledRule> rules_for(Color self) const {
    return by_color_[static_cast<std::size_t>(self)];
  }
  /// The guard prefilter for the `self` rule group (lane order matches
  /// rules_for: rule-major, symmetry-minor).
  const GuardGroup& guard_group(Color self) const {
    return groups_[static_cast<std::size_t>(self)];
  }

 private:
  int phi_;
  int kernel_size_;
  std::span<const Sym> syms_;
  std::array<std::vector<CompiledRule>, kMaxColors> by_color_;
  std::array<GuardGroup, kMaxColors> groups_;
};

}  // namespace lumi
