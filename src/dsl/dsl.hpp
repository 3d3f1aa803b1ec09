// Human-readable text format for algorithms, so rule sets can be authored,
// versioned and diffed outside C++.  Grammar (one declaration per line, `#`
// comments):
//
//   algorithm <name>
//   section <paper-section>
//   model fsync|ssync|async
//   phi 1|2
//   colors <count>
//   chirality common|none
//   min-grid <rows> <cols>
//   init (<row>,<col>)=<color> ...
//   rule <label> self=<color> [<cell>=<pattern> ...] -> <color>,<move>
//
// with <cell> in {C,N,E,S,W,NN,EE,SS,WW,NE,SE,SW,NW}, <pattern> in
// {empty, wall, gray, any, {G,W,...}}, <move> in {N,E,S,W,Idle}.  Cells not
// listed default to gray (no robot there); C accepts only a multiset.
#pragma once

#include <string>

#include "src/core/algorithm.hpp"

namespace lumi::dsl {

std::string serialize(const Algorithm& alg);

/// Parses the format above; throws std::invalid_argument naming the line and
/// quoting the offending token on malformed input.  Lines may end in CRLF or
/// trailing whitespace.  The table itself is not checked, so deliberately
/// defective ones (the analyzer's lint fixtures, recorded livelocks) load;
/// callers run Algorithm::validate() or analysis::require_well_formed.
Algorithm parse(const std::string& text);

}  // namespace lumi::dsl
