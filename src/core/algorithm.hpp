// Algorithm descriptor: a rule set plus the model assumptions it was
// designed for (synchrony, phi, number of colors, chirality) and its initial
// configuration, anchored at the grid's northwest corner.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/core/configuration.hpp"
#include "src/core/rule.hpp"

namespace lumi {

enum class Synchrony : std::uint8_t { Fsync, Ssync, Async };
enum class Chirality : std::uint8_t { Common, None };

std::string to_string(Synchrony s);
std::string to_string(Chirality c);

struct Algorithm {
  std::string name;           ///< e.g. "alg06"
  std::string paper_section;  ///< e.g. "4.3.1"
  Synchrony model = Synchrony::Fsync;  ///< weakest model the algorithm tolerates
  int phi = 1;
  int num_colors = 1;
  Chirality chirality = Chirality::Common;
  int min_rows = 2;
  int min_cols = 3;
  std::vector<Rule> rules;
  /// Initial robot placements (positions are absolute grid coordinates,
  /// near the northwest corner).
  std::vector<std::pair<Vec, Color>> initial_robots;

  int num_robots() const { return static_cast<int>(initial_robots.size()); }

  /// The symmetries a view may be observed through: 4 rotations with common
  /// chirality, 8 rotations+mirrors without.
  std::span<const Sym> symmetries() const;

  Configuration initial_configuration(const Grid& grid) const;

  const Rule* find_rule(const std::string& label) const;

  /// Colors reachable from the initial lights through the rules'
  /// `self -> new_color` recoloring graph, ascending.  A declared color
  /// outside this set can never be lit by any execution — the rule-table
  /// analyzer (src/analysis/rule_analysis.hpp) reports such colors and the
  /// rules keyed on them as dead.
  std::vector<Color> reachable_colors() const;

  /// Structural sanity checks; throws std::invalid_argument on violation:
  /// colors within num_colors, guard offsets within phi, movement targets
  /// statically on-grid (pattern Empty or Multiset), grid minima sane.
  /// The deeper semantic contracts (guard disjointness, symmetry-unambiguous
  /// moves, color reachability) are the rule-table analyzer's job:
  /// analysis::analyze in src/analysis/rule_analysis.hpp.
  void validate() const;
};

}  // namespace lumi
