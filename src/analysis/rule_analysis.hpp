// Semantic rule-table analyzer: proves an Algorithm's rule set well-formed
// statically, before any engine runs it.
//
// The paper's correctness arguments assume well-formed tables — no two
// guards simultaneously satisfiable with conflicting actions, moves never
// directed into cells the guard admits as walls, every declared light color
// actually reachable.  Algorithm::validate() checks only shallow structure;
// this pass decides the semantic properties exactly.  Guards are sparse
// constraints over at most kMaxKernelSize view offsets with small finite
// per-cell domains, so pairwise guard intersection is decidable by a direct
// per-cell CellPattern meet (src/core/pattern.hpp) — no solver dependency.
//
// Defect classes (docs/ANALYSIS.md maps each to the paper assumption it
// protects):
//   conflict        two distinct rules satisfiable on the same view with
//                   different actions (the paper's tables are meant to be
//                   mutually exclusive across rules)
//   ambiguous-move  a guard invariant under an admissible symmetry that maps
//                   its move to a different direction — the same-rule
//                   specialization of a conflict.  A rule overlapping itself
//                   under two symmetries with *distinguishable* guards is NOT
//                   a defect: the divergence is the adversary's frame choice,
//                   which disoriented algorithms tolerate by construction.
//   dead-rule       guards no view can satisfy (contradictory or shadowed
//                   cells, center without the robot itself, more robots
//                   required than the algorithm has) or that can never fire
//                   (self color never lit)
//   color-flow      colors unreachable from the initial lights through the
//                   self -> new_color graph, or a palette num_colors
//                   overstates
//   wall-hazard     moves into cells the guard admits as walls
//
// Every conflict/ambiguous-move finding carries a witness view and is
// *certified* at analysis time: the witness is replayed through the compiled
// matcher — the same code the engines and the model checker execute — and
// must exhibit both reported actions.  The analyzer can therefore never
// drift from engine semantics; a certification failure throws.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/view.hpp"

namespace lumi::analysis {

enum class Severity : std::uint8_t { Warning, Error };
enum class DefectClass : std::uint8_t {
  DeterminismConflict,
  SymmetryAmbiguousMove,
  DeadRule,
  ColorFlow,
  WallHazard,
};

/// Stable machine-readable slugs: "conflict", "ambiguous-move", "dead-rule",
/// "color-flow", "wall-hazard" (fixture `# expect:` headers use these).
std::string to_string(DefectClass cls);
std::string to_string(Severity sev);

/// A concrete view (global frame, kernel order) witnessing a finding.
/// Feeding it to the matcher reproduces the reported behaviors.
struct WitnessView {
  int phi = 1;
  Color self = Color::G;
  std::array<CellContent, kMaxKernelSize> cells{};

  /// The witness as a matcher-ready snapshot (planes filled).
  Snapshot to_snapshot() const;
  /// Renders like "self=G C={G} N=empty ... SE=wall" over the whole kernel.
  std::string to_string() const;
};

struct Finding {
  DefectClass cls = DefectClass::DeadRule;
  Severity severity = Severity::Error;
  int rule_index = -1;        ///< index into Algorithm::rules; -1 = whole table
  int other_rule_index = -1;  ///< second rule of a conflict pair
  std::string rule;           ///< label of rule_index ("" = whole table)
  std::string other_rule;     ///< label of other_rule_index
  Sym sym{};                  ///< admissible symmetry of `rule`'s lane
  Sym other_sym{};            ///< admissible symmetry of `other_rule`'s lane
  std::string message;
  std::optional<WitnessView> witness;  ///< present on conflict/ambiguous-move
  bool certified = false;  ///< witness replayed through the compiled matcher

  std::string to_string() const;
};

struct AnalysisReport {
  std::vector<Finding> findings;

  int errors() const;
  /// No findings at all — the bar the registry algorithms are pinned at.
  bool clean() const { return findings.empty(); }
  /// No error-severity findings (warnings tolerated).
  bool ok() const { return errors() == 0; }
  /// One line per finding, deterministic order; "" when clean.
  std::string to_string() const;
};

/// Analyzes the rule table exactly; deterministic, allocation-light, and
/// fast enough to run at every campaign expansion.  The input need not pass
/// Algorithm::validate() — structural violations surface as findings instead
/// of exceptions (that is what lets defect fixtures be analyzed at all).
AnalysisReport analyze(const Algorithm& alg);

/// Throws std::invalid_argument carrying the findings text when `analyze`
/// reports any error-severity finding.  The gate dsl::parse (strict mode)
/// and campaign matrix expansion apply.
void require_well_formed(const Algorithm& alg);

/// Replays a conflict/ambiguous-move finding's witness through the compiled
/// matcher and checks both reported lanes' actions are enabled and
/// behaviorally distinct.  analyze() already does this (and throws
/// std::logic_error on mismatch); exposed so test harnesses and algo_lint
/// can re-certify independently.
bool certify_conflict(const Algorithm& alg, const Finding& finding);

}  // namespace lumi::analysis
