#include "src/analysis/rule_analysis.hpp"

#include <stdexcept>
#include <utility>

#include "src/core/compiled.hpp"
#include "src/core/matching.hpp"

namespace lumi::analysis {

namespace {

/// Behavior of one (rule, symmetry) lane in the global frame.
struct LaneAction {
  Color new_color = Color::G;
  std::optional<Dir> move;

  friend bool operator==(const LaneAction&, const LaneAction&) = default;
};

LaneAction lane_action(const Rule& rule, Sym sym) {
  LaneAction act;
  act.new_color = rule.new_color;
  if (rule.move.has_value()) act.move = apply(sym, *rule.move);
  return act;
}

/// Dense world-frame guard row of `rule` under `sym`, mirroring the compiled
/// matcher's table construction: row[w] constrains snapshot cell w, with
/// row[perm[i]] = pattern_at(offsets[i]) (perm is a bijection of the kernel).
std::array<CellPattern, kMaxKernelSize> world_row(const Rule& rule, const ViewKernel& kernel,
                                                  Sym sym) {
  std::array<CellPattern, kMaxKernelSize> row{};
  const std::span<const Vec> offsets = kernel.offsets();
  const std::span<const std::uint8_t> perm = kernel.permutation(sym);
  for (int i = 0; i < kernel.size(); ++i) {
    row[perm[static_cast<std::size_t>(i)]] = rule.pattern_at(offsets[static_cast<std::size_t>(i)]);
  }
  return row;
}

/// Whether the center cell of a (met) row can host the acting robot: the
/// robot itself sits there, so only Any or a multiset containing `self`
/// admits any content.
bool center_admits_self(const CellPattern& center, Color self) {
  if (center.kind() == CellPattern::Kind::Any) return true;
  return center.kind() == CellPattern::Kind::Multiset && center.multiset().count(self) > 0;
}

/// Robots a row pins into the view: the sum of its multiset sizes, plus the
/// acting robot itself when the center is underconstrained (a real snapshot
/// always shows the robot on its own cell).  A view demanding more than the
/// algorithm owns is unreachable in any execution.
int robots_required(const std::array<CellPattern, kMaxKernelSize>& row, const ViewKernel& kernel) {
  int total = 0;
  for (int w = 0; w < kernel.size(); ++w) {
    const CellPattern& p = row[static_cast<std::size_t>(w)];
    if (p.kind() == CellPattern::Kind::Multiset) total += p.multiset().size();
  }
  const CellPattern& center = row[static_cast<std::size_t>(kernel.index_of({0, 0}))];
  if (center.kind() != CellPattern::Kind::Multiset) total += 1;
  return total;
}

/// A concrete cell content satisfying `pattern` (robot-free choices for the
/// underconstrained kinds).  Only called on satisfiable patterns.
CellContent realize(const CellPattern& pattern) {
  CellContent cell;
  switch (pattern.kind()) {
    case CellPattern::Kind::Wall: cell.wall = true; break;
    case CellPattern::Kind::Multiset: cell.robots = pattern.multiset(); break;
    case CellPattern::Kind::Empty:
    case CellPattern::Kind::EmptyOrWall:
    case CellPattern::Kind::Any: break;  // an existing, robot-free node
  }
  return cell;
}

WitnessView make_witness(const std::array<CellPattern, kMaxKernelSize>& row,
                         const ViewKernel& kernel, Color self) {
  WitnessView w;
  w.phi = kernel.phi();
  w.self = self;
  for (int i = 0; i < kernel.size(); ++i) {
    w.cells[static_cast<std::size_t>(i)] = realize(row[static_cast<std::size_t>(i)]);
  }
  // A snapshot's center always contains the acting robot; an Any center left
  // the choice open, so realize it as the robot standing alone.
  CellContent& center = w.cells[static_cast<std::size_t>(kernel.index_of({0, 0}))];
  if (!center.wall && center.robots.empty()) center.robots.add(self);
  return w;
}

bool color_in_palette(Color c, int num_colors) { return static_cast<int>(c) < num_colors; }

std::string rule_ref(const Algorithm& alg, int index) {
  return alg.name + "/" + alg.rules[static_cast<std::size_t>(index)].label;
}

std::string sym_text(Sym g) {
  return "rot" + std::to_string(g.rot) + (g.mirror ? "+mirror" : "");
}

/// Emits the axis-bound check: walls required on both sides of an axis imply
/// a grid strictly smaller than the declared minimum.
void check_opposite_walls(const Algorithm& alg, int ri, const ViewKernel& kernel,
                          std::vector<Finding>& out) {
  const Rule& rule = alg.rules[static_cast<std::size_t>(ri)];
  for (const bool rows_axis : {true, false}) {
    int neg = 0;  // most negative on-axis wall offset
    int pos = 0;  // most positive on-axis wall offset
    for (Vec offset : kernel.offsets()) {
      const int along = rows_axis ? offset.row : offset.col;
      const int across = rows_axis ? offset.col : offset.row;
      if (across != 0) continue;  // diagonal walls are disjunctive; skip
      if (rule.pattern_at(offset).kind() != CellPattern::Kind::Wall) continue;
      neg = std::min(neg, along);
      pos = std::max(pos, along);
    }
    if (neg == 0 || pos == 0) continue;
    // Walls at `neg` and `pos` squeeze the axis to at most pos-neg-1 nodes.
    const int implied = pos - neg - 1;
    const int minimum = rows_axis ? alg.min_rows : alg.min_cols;
    if (implied >= minimum) continue;
    Finding f;
    f.cls = DefectClass::DeadRule;
    f.severity = Severity::Warning;
    f.rule_index = ri;
    f.rule = rule.label;
    f.message = rule_ref(alg, ri) + ": guard walls both sides of the " +
                (rows_axis ? std::string("row") : std::string("column")) + " axis, implying at most " +
                std::to_string(implied) + " " + (rows_axis ? "rows" : "cols") +
                " — below the declared minimum " + std::to_string(alg.min_rows) + "x" +
                std::to_string(alg.min_cols) + "; satisfiable only amid interior obstacles";
    out.push_back(std::move(f));
  }
}

}  // namespace

std::string to_string(DefectClass cls) {
  switch (cls) {
    case DefectClass::DeterminismConflict: return "conflict";
    case DefectClass::SymmetryAmbiguousMove: return "ambiguous-move";
    case DefectClass::DeadRule: return "dead-rule";
    case DefectClass::ColorFlow: return "color-flow";
    case DefectClass::WallHazard: return "wall-hazard";
  }
  return "?";
}

std::string to_string(Severity sev) { return sev == Severity::Error ? "error" : "warning"; }

Snapshot WitnessView::to_snapshot() const {
  Snapshot snap;
  snap.origin = {0, 0};
  snap.self_color = self;
  snap.phi = phi;
  snap.cells = cells;
  snap.planes = snapshot_planes(snap, ViewKernel::get(phi).size());
  return snap;
}

std::string WitnessView::to_string() const {
  const ViewKernel& kernel = ViewKernel::get(phi);
  std::string out = "self=";
  out += color_letter(self);
  for (int i = 0; i < kernel.size(); ++i) {
    const CellContent& cell = cells[static_cast<std::size_t>(i)];
    out += ' ';
    out += offset_name(kernel.offsets()[static_cast<std::size_t>(i)]);
    out += '=';
    if (cell.wall) {
      out += "wall";
    } else if (cell.robots.empty()) {
      out += "empty";
    } else {
      out += cell.robots.to_string();
    }
  }
  return out;
}

std::string Finding::to_string() const {
  // Sequential appends rather than operator+ chains: gcc-12's inliner raises
  // a spurious -Wrestrict (PR105329) on the chained form.
  std::string out = "[";
  out += analysis::to_string(severity);
  out += '/';
  out += analysis::to_string(cls);
  out += "] ";
  out += message;
  if (witness.has_value()) {
    out += " | witness: ";
    out += witness->to_string();
    out += certified ? " (matcher-certified)" : " (UNCERTIFIED)";
  }
  return out;
}

int AnalysisReport::errors() const {
  int n = 0;
  for (const Finding& f : findings) n += f.severity == Severity::Error ? 1 : 0;
  return n;
}

std::string AnalysisReport::to_string() const {
  std::string out;
  for (const Finding& f : findings) {
    if (!out.empty()) out += '\n';
    out += f.to_string();
  }
  return out;
}

bool certify_conflict(const Algorithm& alg, const Finding& finding) {
  if (!finding.witness.has_value()) return false;
  if (finding.rule_index < 0 || finding.other_rule_index < 0) return false;
  if (finding.rule_index >= static_cast<int>(alg.rules.size()) ||
      finding.other_rule_index >= static_cast<int>(alg.rules.size())) {
    return false;
  }
  const LaneAction a =
      lane_action(alg.rules[static_cast<std::size_t>(finding.rule_index)], finding.sym);
  const LaneAction b =
      lane_action(alg.rules[static_cast<std::size_t>(finding.other_rule_index)],
                  finding.other_sym);
  if (a == b) return false;  // not a behavioral conflict at all
  const Snapshot snap = finding.witness->to_snapshot();
  // The compiled matcher is exactly what the engines and the model checker
  // execute; the witness must light up both behaviors there.
  const std::vector<Action> enabled = enabled_actions(alg, snap);
  bool saw_a = false;
  bool saw_b = false;
  for (const Action& act : enabled) {
    if (act.new_color == a.new_color && act.move == a.move) saw_a = true;
    if (act.new_color == b.new_color && act.move == b.move) saw_b = true;
  }
  return saw_a && saw_b;
}

AnalysisReport analyze(const Algorithm& alg) {
  AnalysisReport report;
  const auto add = [&report](Finding f) { report.findings.push_back(std::move(f)); };

  // The kernel everything below indexes through; a phi outside the supported
  // range leaves no sound way to interpret the guards at all.
  if (alg.phi < 1 || alg.phi > kMaxPhi) {
    Finding f;
    f.cls = DefectClass::DeadRule;
    f.message = alg.name + ": phi " + std::to_string(alg.phi) + " outside [1, " +
                std::to_string(kMaxPhi) + "]; guards are uninterpretable";
    add(std::move(f));
    return report;
  }
  const ViewKernel& kernel = ViewKernel::get(alg.phi);
  const int ks = kernel.size();
  const std::span<const Sym> syms = alg.symmetries();
  const int num_colors = std::min(alg.num_colors, kMaxColors);
  const int num_rules = static_cast<int>(alg.rules.size());

  // --- per-rule structural + semantic pass ----------------------------------
  // satisfiable[ri]: the rule's effective row admits at least one view, so it
  // participates in the pairwise conflict scan.
  std::vector<char> satisfiable(static_cast<std::size_t>(num_rules), 1);
  for (int ri = 0; ri < num_rules; ++ri) {
    const Rule& rule = alg.rules[static_cast<std::size_t>(ri)];
    const auto rule_finding = [&](DefectClass cls, Severity sev, std::string message) {
      Finding f;
      f.cls = cls;
      f.severity = sev;
      f.rule_index = ri;
      f.rule = rule.label;
      f.message = std::move(message);
      add(std::move(f));
    };

    // Palette discipline: colors beyond num_colors can never be lit, so a
    // guard or action naming one is dead weight or an unfulfillable claim.
    if (!color_in_palette(rule.self, num_colors)) {
      rule_finding(DefectClass::ColorFlow, Severity::Error,
                   rule_ref(alg, ri) + ": self color " + lumi::to_string(rule.self) +
                       " outside the declared palette of " + std::to_string(alg.num_colors));
      satisfiable[static_cast<std::size_t>(ri)] = 0;
    }
    if (!color_in_palette(rule.new_color, num_colors)) {
      rule_finding(DefectClass::ColorFlow, Severity::Error,
                   rule_ref(alg, ri) + ": action color " + lumi::to_string(rule.new_color) +
                       " outside the declared palette of " + std::to_string(alg.num_colors));
    }

    // Guard-cell structure: offsets must live in the kernel (the matcher
    // never reads others), duplicates are shadowed, guard colors must be
    // producible.
    for (const auto& [offset, pattern] : rule.cells) {
      if (kernel.index_of(offset) < 0) {
        rule_finding(DefectClass::DeadRule, Severity::Error,
                     rule_ref(alg, ri) + ": guard cell " + offset_name(offset) +
                         " outside the phi=" + std::to_string(alg.phi) +
                         " kernel is never checked by the matcher");
        continue;
      }
      if (pattern.kind() == CellPattern::Kind::Multiset) {
        for (int c = 0; c < kMaxColors; ++c) {
          const Color color = static_cast<Color>(c);
          if (pattern.multiset().count(color) > 0 && !color_in_palette(color, num_colors)) {
            rule_finding(DefectClass::ColorFlow, Severity::Error,
                         rule_ref(alg, ri) + ": guard cell " + offset_name(offset) +
                             " requires color " + lumi::to_string(color) +
                             " outside the declared palette of " + std::to_string(alg.num_colors));
            satisfiable[static_cast<std::size_t>(ri)] = 0;
          }
        }
      }
    }
    for (std::size_t a = 0; a < rule.cells.size(); ++a) {
      const auto& [offset, first] = rule.cells[a];
      bool is_first = true;
      for (std::size_t b = 0; b < a; ++b) {
        if (rule.cells[b].first == offset) {
          is_first = false;
          break;
        }
      }
      if (!is_first || rule.count_cells_at(offset) < 2) continue;
      // Compare every shadowed entry against the one the matcher honors.
      for (std::size_t b = a + 1; b < rule.cells.size(); ++b) {
        if (!(rule.cells[b].first == offset)) continue;
        const CellPattern& shadowed = rule.cells[b].second;
        if (shadowed == first) {
          rule_finding(DefectClass::DeadRule, Severity::Warning,
                       rule_ref(alg, ri) + ": guard cell " + offset_name(offset) +
                           " declared twice with the same pattern (redundant)");
        } else {
          rule_finding(DefectClass::DeadRule, Severity::Error,
                       rule_ref(alg, ri) + ": guard cell " + offset_name(offset) +
                           " declared twice with contradictory patterns '" + first.to_string() +
                           "' vs '" + shadowed.to_string() +
                           "'; the matcher honors only the first");
        }
      }
    }

    // Center satisfiability: the acting robot stands on its own center cell,
    // so the pattern must admit a multiset containing `self`.
    if (!center_admits_self(rule.pattern_at({0, 0}), rule.self)) {
      rule_finding(DefectClass::DeadRule, Severity::Error,
                   rule_ref(alg, ri) + ": center pattern '" +
                       rule.pattern_at({0, 0}).to_string() +
                       "' cannot contain the acting robot (" +
                       lumi::to_string(rule.self) + "); the guard matches no view");
      satisfiable[static_cast<std::size_t>(ri)] = 0;
    }

    // Robot budget: the view cannot show more robots than exist.
    const std::array<CellPattern, kMaxKernelSize> row = world_row(rule, kernel, Sym{});
    const int need = robots_required(row, kernel);
    if (need > alg.num_robots()) {
      rule_finding(DefectClass::DeadRule, Severity::Error,
                   rule_ref(alg, ri) + ": guard pins " + std::to_string(need) +
                       " robots into the view but the algorithm has only " +
                       std::to_string(alg.num_robots()));
      satisfiable[static_cast<std::size_t>(ri)] = 0;
    }

    check_opposite_walls(alg, ri, kernel, report.findings);

    // Wall hazards: the guard-frame movement target must be pinned to an
    // existing node; symmetries map guard and move together, so checking the
    // guard frame covers every lane.
    if (rule.move.has_value()) {
      const CellPattern target = rule.pattern_at(dir_vec(*rule.move));
      const std::string target_name = offset_name(dir_vec(*rule.move));
      if (target.kind() == CellPattern::Kind::Wall) {
        rule_finding(DefectClass::WallHazard, Severity::Error,
                     rule_ref(alg, ri) + ": moves " + lumi::to_string(*rule.move) +
                         " into cell " + target_name + " the guard requires to be a wall");
      } else if (!target.guarantees_node_exists()) {
        rule_finding(DefectClass::WallHazard, Severity::Warning,
                     rule_ref(alg, ri) + ": moves " + lumi::to_string(*rule.move) +
                         " into cell " + target_name + " the guard leaves unconstrained ('" +
                         target.to_string() +
                         "') — even at the minimal " + std::to_string(alg.min_rows) + "x" +
                         std::to_string(alg.min_cols) +
                         " grid the robot can stand at the boundary; pin it with empty or a "
                         "multiset");
      }
    }
  }

  // --- color-flow pass ------------------------------------------------------
  {
    std::array<bool, kMaxColors> reachable{};
    for (Color c : alg.reachable_colors()) reachable[static_cast<std::size_t>(c)] = true;
    std::array<bool, kMaxColors> used{};
    for (const auto& [pos, color] : alg.initial_robots) {
      (void)pos;
      if (color_in_palette(color, kMaxColors)) used[static_cast<std::size_t>(color)] = true;
    }
    for (const Rule& rule : alg.rules) {
      used[static_cast<std::size_t>(rule.self)] = true;
      used[static_cast<std::size_t>(rule.new_color)] = true;
      for (const auto& [offset, pattern] : rule.cells) {
        (void)offset;
        if (pattern.kind() != CellPattern::Kind::Multiset) continue;
        for (int c = 0; c < kMaxColors; ++c) {
          if (pattern.multiset().count(static_cast<Color>(c)) > 0) {
            used[static_cast<std::size_t>(c)] = true;
          }
        }
      }
    }
    for (int c = 0; c < num_colors; ++c) {
      const Color color = static_cast<Color>(c);
      Finding f;
      f.cls = DefectClass::ColorFlow;
      f.severity = Severity::Warning;
      if (!used[static_cast<std::size_t>(c)]) {
        f.message = alg.name + ": declared palette of " + std::to_string(alg.num_colors) +
                    " overstates — color " + lumi::to_string(color) +
                    " appears in no light, guard or action";
        add(std::move(f));
      } else if (!reachable[static_cast<std::size_t>(c)]) {
        f.message = alg.name + ": color " + lumi::to_string(color) +
                    " is never lit — unreachable from the initial lights through the "
                    "self -> new_color graph";
        add(std::move(f));
      }
    }
    for (int ri = 0; ri < num_rules; ++ri) {
      const Rule& rule = alg.rules[static_cast<std::size_t>(ri)];
      if (!color_in_palette(rule.self, num_colors)) continue;  // already an error above
      if (reachable[static_cast<std::size_t>(rule.self)]) continue;
      Finding f;
      f.cls = DefectClass::DeadRule;
      f.severity = Severity::Warning;
      f.rule_index = ri;
      f.rule = rule.label;
      f.message = rule_ref(alg, ri) + ": can never fire — self color " +
                  lumi::to_string(rule.self) + " is never lit";
      add(std::move(f));
    }
  }

  // --- pairwise determinism pass --------------------------------------------
  // Two lanes (rule, symmetry) of *distinct* rules with the same self color
  // conflict when the cellwise meet of their world-frame rows is satisfiable
  // by a view the algorithm can actually show (center admits the robot, robot
  // budget holds) and their global-frame actions differ.  Lanes ascend in
  // rule-then-symmetry order, the same order the matcher reports witnesses
  // in.
  //
  // One rule overlapping *itself* under two symmetries is deliberately not a
  // conflict: for lanes (r, s1), (r, s2) the second is the t = s2*s1^-1 image
  // of the first — guard and move transported together — so the divergence is
  // exactly the adversary's choice of local frame, which disoriented
  // algorithms tolerate by construction (every chirality-free table in the
  // paper overlaps itself this way on symmetric views).  The defect is the
  // degenerate case where the guard cannot distinguish the frames at all
  // (identical rows) yet the move depends on them: ambiguous-move, above.
  const int nsyms = static_cast<int>(syms.size());
  for (int ri = 0; ri < num_rules; ++ri) {
    if (satisfiable[static_cast<std::size_t>(ri)] == 0) continue;
    const Rule& rule_a = alg.rules[static_cast<std::size_t>(ri)];
    std::vector<std::array<CellPattern, kMaxKernelSize>> rows_a;
    rows_a.reserve(static_cast<std::size_t>(nsyms));
    for (int s = 0; s < nsyms; ++s) {
      rows_a.push_back(world_row(rule_a, kernel, syms[static_cast<std::size_t>(s)]));
    }

    // (b) symmetry-ambiguous moves: the guard read through two admissible
    // symmetries is the *same* constraint, yet the move maps differently.
    bool ambiguous_reported = false;
    for (int s1 = 0; s1 < nsyms && !ambiguous_reported; ++s1) {
      for (int s2 = s1 + 1; s2 < nsyms && !ambiguous_reported; ++s2) {
        if (rows_a[static_cast<std::size_t>(s1)] != rows_a[static_cast<std::size_t>(s2)]) continue;
        const LaneAction a1 = lane_action(rule_a, syms[static_cast<std::size_t>(s1)]);
        const LaneAction a2 = lane_action(rule_a, syms[static_cast<std::size_t>(s2)]);
        if (a1 == a2) continue;
        Finding f;
        f.cls = DefectClass::SymmetryAmbiguousMove;
        f.rule_index = ri;
        f.other_rule_index = ri;
        f.rule = rule_a.label;
        f.other_rule = rule_a.label;
        f.sym = syms[static_cast<std::size_t>(s1)];
        f.other_sym = syms[static_cast<std::size_t>(s2)];
        f.message = rule_ref(alg, ri) + ": guard is invariant under " +
                    sym_text(f.other_sym) + " which maps the move to " +
                    (a2.move.has_value() ? lumi::to_string(*a2.move) : std::string("Idle")) +
                    " instead of " +
                    (a1.move.has_value() ? lumi::to_string(*a1.move) : std::string("Idle")) +
                    "; the adversary picks the frame";
        f.witness = make_witness(rows_a[static_cast<std::size_t>(s1)], kernel, rule_a.self);
        if (!certify_conflict(alg, f)) {
          throw std::logic_error("rule analysis drift: matcher rejects ambiguous-move witness "
                                 "for " + rule_ref(alg, ri));
        }
        f.certified = true;
        add(std::move(f));
        ambiguous_reported = true;
      }
    }

    for (int rj = ri + 1; rj < num_rules; ++rj) {
      if (satisfiable[static_cast<std::size_t>(rj)] == 0) continue;
      const Rule& rule_b = alg.rules[static_cast<std::size_t>(rj)];
      if (rule_b.self != rule_a.self) continue;
      bool conflict_reported = false;
      for (int s1 = 0; s1 < nsyms && !conflict_reported; ++s1) {
        for (int s2 = 0; s2 < nsyms && !conflict_reported; ++s2) {
          const LaneAction a1 = lane_action(rule_a, syms[static_cast<std::size_t>(s1)]);
          const LaneAction a2 = lane_action(rule_b, syms[static_cast<std::size_t>(s2)]);
          if (a1 == a2) continue;  // same behavior: overlap is harmless
          // Cellwise meet of the two world-frame rows.
          const std::array<CellPattern, kMaxKernelSize> row_b =
              world_row(rule_b, kernel, syms[static_cast<std::size_t>(s2)]);
          std::array<CellPattern, kMaxKernelSize> met{};
          bool sat = true;
          for (int w = 0; w < ks && sat; ++w) {
            const std::optional<CellPattern> m =
                meet(rows_a[static_cast<std::size_t>(s1)][static_cast<std::size_t>(w)],
                     row_b[static_cast<std::size_t>(w)]);
            if (!m.has_value()) {
              sat = false;
            } else {
              met[static_cast<std::size_t>(w)] = *m;
            }
          }
          if (!sat) continue;
          if (!center_admits_self(met[static_cast<std::size_t>(kernel.index_of({0, 0}))],
                                  rule_a.self)) {
            continue;
          }
          if (robots_required(met, kernel) > alg.num_robots()) continue;
          Finding f;
          f.cls = DefectClass::DeterminismConflict;
          f.rule_index = ri;
          f.other_rule_index = rj;
          f.rule = rule_a.label;
          f.other_rule = rule_b.label;
          f.sym = syms[static_cast<std::size_t>(s1)];
          f.other_sym = syms[static_cast<std::size_t>(s2)];
          f.message = rule_ref(alg, ri) + " (" + sym_text(f.sym) + ") and " +
                      rule_ref(alg, rj) + " (" + sym_text(f.other_sym) +
                      ") are satisfiable on the same view with different actions: " +
                      lumi::to_string(a1.new_color) + "," +
                      (a1.move.has_value() ? lumi::to_string(*a1.move) : std::string("Idle")) +
                      " vs " + lumi::to_string(a2.new_color) + "," +
                      (a2.move.has_value() ? lumi::to_string(*a2.move) : std::string("Idle"));
          f.witness = make_witness(met, kernel, rule_a.self);
          if (!certify_conflict(alg, f)) {
            throw std::logic_error("rule analysis drift: matcher rejects conflict witness for " +
                                   rule_ref(alg, ri) + " vs " + rule_ref(alg, rj));
          }
          f.certified = true;
          add(std::move(f));
          conflict_reported = true;
        }
      }
    }
  }

  return report;
}

void require_well_formed(const Algorithm& alg) {
  const AnalysisReport report = analyze(alg);
  if (report.ok()) return;
  throw std::invalid_argument(alg.name + ": rule table ill-formed (" +
                              std::to_string(report.errors()) + " errors):\n" +
                              report.to_string());
}

}  // namespace lumi::analysis
