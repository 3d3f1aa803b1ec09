// Rule matching: which rules a robot can execute, under which symmetries.
//
// A robot observes its snapshot in an unknown local frame.  With common
// chirality the frame is one of 4 rotations of the global frame; without, it
// is one of 8 rotations/reflections.  A rule is enabled if the snapshot read
// through some admissible symmetry matches the guard; the resulting action
// carries the movement mapped back into the global frame.  When several
// (view, rule) combinations match, the scheduler picks one (Section 2.2 of
// the paper) — callers receive all distinct behaviors.
//
// Two implementations coexist: the CompiledAlgorithm fast path (dense
// kernel-indexed tables, used by the engines/runner/checkers) and the naive
// sparse-scan reference the fast path is differentially tested against.
// The Algorithm-level overloads route through the compiled cache, so every
// caller gets the fast path; hot loops should obtain the CompiledAlgorithm
// once via CompiledAlgorithm::get and use it directly.
#pragma once

#include <optional>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/compiled.hpp"
#include "src/core/view.hpp"

namespace lumi {

/// A concrete action a robot may take, expressed in the global frame.
struct Action {
  Color new_color = Color::G;
  std::optional<Dir> move;  ///< global frame; nullopt = stay
  int rule_index = -1;      ///< index into Algorithm::rules
  Sym sym;                  ///< symmetry the guard matched under

  /// Two actions are behaviorally identical when they recolor and move the
  /// robot the same way, regardless of which rule/symmetry produced them.
  bool same_behavior(const Action& other) const {
    return new_color == other.new_color && move == other.move;
  }
};

// --- compiled fast path ------------------------------------------------------

/// All behaviorally distinct actions enabled for the snapshot (at most one
/// per (new_color, move) pair; `rule_index`/`sym` identify the first witness
/// in rule-then-symmetry order, identical to the naive reference).
std::vector<Action> enabled_actions(const CompiledAlgorithm& alg, const Snapshot& snap);
std::vector<Action> enabled_actions(const CompiledAlgorithm& alg, const Configuration& config,
                                    int robot);
/// In-place variant reusing `out`'s capacity (the incremental tracker's
/// recompute loop calls this once per dirty robot).
void enabled_actions_into(const CompiledAlgorithm& alg, const Snapshot& snap,
                          std::vector<Action>& out);

// --- naive reference matcher -------------------------------------------------

/// True if the snapshot matches `rule` through symmetry `sym` (sparse scan;
/// the reference semantics the compiled matcher is tested against).
bool guard_matches(const Rule& rule, const Snapshot& snap, Sym sym);

/// Reference implementation of enabled_actions via guard_matches.
std::vector<Action> naive_enabled_actions(const Algorithm& alg, const Snapshot& snap);

// --- Algorithm-level conveniences (routed through the compiled cache) --------

std::vector<Action> enabled_actions(const Algorithm& alg, const Snapshot& snap);

/// Convenience overload snapshotting the live configuration.
std::vector<Action> enabled_actions(const Algorithm& alg, const Configuration& config, int robot);

}  // namespace lumi
