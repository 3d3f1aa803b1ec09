// Adversary synthesis for Theorem 1: in the SSYNC model, can a *fair*
// scheduler prevent a given algorithm's robots from ever visiting some node?
//
// The scheduler controls everything (activation subsets and ambiguous
// rule/view choices), so the question is a reachability/fair-cycle analysis
// of the configuration graph restricted to configurations avoiding the
// protected node: the adversary wins iff it can reach
//   (a) a terminal configuration (no robot enabled), or
//   (b) a strongly connected component supporting a fair cycle — one where
//       every robot is either activated inside the component or disabled in
//       some of its configurations (so activating it there is a no-op and
//       fairness is satisfied vacuously).
// Theorem 1 states that for k=2, phi=1 *every* algorithm loses against such
// an adversary; this module demonstrates it constructively per algorithm.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/grid.hpp"

namespace lumi {

struct AdversaryResult {
  bool adversary_wins = false;
  Vec protected_node;        ///< node the adversary keeps unvisited (if wins)
  bool via_terminal = false; ///< won by reaching a terminal configuration
  bool via_fair_cycle = false;
  long states = 0;           ///< states explored across all candidate nodes
  std::string summary;
};

/// Tries every node as the protected target and reports the first the
/// adversary can defend forever (fairly).  `adversary_wins == false` means
/// every fair SSYNC schedule eventually visits every node — evidence the
/// algorithm explores under any fair SSYNC adversary on this grid.
AdversaryResult find_ssync_adversary(const Algorithm& alg, const Grid& grid);

/// Checks a single protected node.
AdversaryResult check_protected_node(const Algorithm& alg, const Grid& grid, Vec target);

}  // namespace lumi
