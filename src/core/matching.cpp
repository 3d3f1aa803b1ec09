#include "src/core/matching.hpp"

#include <bit>
#include <stdexcept>

namespace lumi {

namespace {

/// The compiled tables are dense over the algorithm's own kernel; a snapshot
/// taken at a different phi would leave unfilled cells readable.
void check_phi(const CompiledAlgorithm& alg, const Snapshot& snap) {
  if (snap.phi != alg.phi()) {
    throw std::invalid_argument("matching: snapshot phi differs from the algorithm's phi");
  }
}

/// Sweeps one dense guard row against the snapshot cells.
bool row_matches(const CellPattern* row, const Snapshot& snap, int kernel_size) {
  for (int w = 0; w < kernel_size; ++w) {
    if (!row[w].matches(snap.cells[static_cast<std::size_t>(w)])) return false;
  }
  return true;
}

Action make_action(const CompiledRule& rule, std::span<const Sym> syms, std::size_t s) {
  Action act;
  act.new_color = rule.new_color;
  act.move = rule.move_by_sym[s] >= 0
                 ? std::optional<Dir>(static_cast<Dir>(rule.move_by_sym[s]))
                 : std::nullopt;
  act.rule_index = rule.rule_index;
  act.sym = syms[s];
  return act;
}

}  // namespace

// --- compiled fast path ------------------------------------------------------

std::vector<Action> enabled_actions(const CompiledAlgorithm& alg, const Snapshot& snap) {
  std::vector<Action> out;
  enabled_actions_into(alg, snap, out);
  return out;
}

void enabled_actions_into(const CompiledAlgorithm& alg, const Snapshot& snap,
                          std::vector<Action>& out) {
  check_phi(alg, snap);
  out.clear();
  const int ks = alg.kernel_size();
  // take_snapshot_into filled the planes while touching each cell; reusing
  // them here saves the matcher a second 13-cell sweep per Look.
  const SnapshotPlanes planes = snap.planes;
  const std::span<const Sym> syms = alg.symmetries();
  const std::span<const CompiledRule> rules = alg.rules_for(snap.self_color);
  const GuardGroup& group = alg.guard_group(snap.self_color);
  const std::size_t nsyms = syms.size();
  // The whole self-color group is judged a word of 64 (rule, symmetry)
  // lanes at a time; only surviving lanes pay the dense row walk.  Lanes
  // ascend in rule-then-symmetry order, so witnesses come out identical to
  // the per-rule reference loop.
  for (std::size_t base = 0; base < group.lanes; base += kGuardLanesPerWord) {
    std::uint64_t mask = guard_pass_mask(group, ks, planes, base / kGuardLanesPerWord);
    while (mask != 0) {
      const std::size_t lane = base + static_cast<std::size_t>(std::countr_zero(mask));
      mask &= mask - 1;
      const CompiledRule& rule = rules[lane / nsyms];
      const std::size_t s = lane % nsyms;
      const CellPattern* row = rule.patterns.data() + s * static_cast<std::size_t>(ks);
      if (!row_matches(row, snap, ks)) continue;
      const Action act = make_action(rule, syms, s);
      bool duplicate = false;
      for (const Action& existing : out) {
        if (existing.same_behavior(act)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) out.push_back(act);
    }
  }
}

std::vector<Action> enabled_actions(const CompiledAlgorithm& alg, const Configuration& config,
                                    int robot) {
  return enabled_actions(alg, take_snapshot(config, robot, alg.phi()));
}

// --- naive reference matcher -------------------------------------------------

bool guard_matches(const Rule& rule, const Snapshot& snap, Sym sym) {
  if (rule.self != snap.self_color) return false;
  const ViewKernel& kernel = ViewKernel::get(snap.phi);
  // Every kernel cell is constrained: explicitly listed cells by their
  // pattern, all others by the implicit gray (no robot there).
  for (Vec offset : kernel.offsets()) {
    const CellPattern pattern = rule.pattern_at(offset);
    const int world_index = kernel.index_of(apply(sym, offset));
    const CellContent& cell = snap.cells[static_cast<std::size_t>(world_index)];
    if (!pattern.matches(cell)) return false;
  }
  // Guard cells outside the kernel would be caught by Algorithm::validate().
  return true;
}

std::vector<Action> naive_enabled_actions(const Algorithm& alg, const Snapshot& snap) {
  std::vector<Action> out;
  for (std::size_t ri = 0; ri < alg.rules.size(); ++ri) {
    const Rule& rule = alg.rules[ri];
    if (rule.self != snap.self_color) continue;
    for (Sym sym : alg.symmetries()) {
      if (!guard_matches(rule, snap, sym)) continue;
      Action act;
      act.new_color = rule.new_color;
      act.move = rule.move.has_value() ? std::optional<Dir>(apply(sym, *rule.move))
                                       : std::nullopt;
      act.rule_index = static_cast<int>(ri);
      act.sym = sym;
      bool duplicate = false;
      for (const Action& existing : out) {
        if (existing.same_behavior(act)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) out.push_back(act);
    }
  }
  return out;
}

// --- Algorithm-level conveniences --------------------------------------------

std::vector<Action> enabled_actions(const Algorithm& alg, const Snapshot& snap) {
  return enabled_actions(*CompiledAlgorithm::get(alg), snap);
}

std::vector<Action> enabled_actions(const Algorithm& alg, const Configuration& config,
                                    int robot) {
  return enabled_actions(alg, take_snapshot(config, robot, alg.phi));
}

}  // namespace lumi
