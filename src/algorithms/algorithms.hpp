// The paper's fourteen terminating grid exploration algorithms.
//
// Rule guards are reconstructed from the prose execution traces: the paper
// gives every algorithm's initial configuration, rule actions, per-phase
// configuration sequences and terminal configurations in text; the guard
// diagrams themselves are figures.  Each factory returns a validated
// Algorithm whose behavior matches those traces.
#pragma once

#include "src/core/algorithm.hpp"

namespace lumi::algorithms {

// --- FSYNC (paper Section 4.2) ---------------------------------------------
/// §4.2.1, Algorithm 1: phi=2, 2 colors, common chirality, k=2 (optimal).
Algorithm algorithm1();
/// §4.2.2, Algorithm 2: phi=2, 2 colors, no chirality, k=3.
Algorithm algorithm2();
/// §4.2.5, Algorithm 3: phi=1, 3 colors, common chirality, k=2 (optimal).
Algorithm algorithm3();
/// §4.2.6, Algorithm 4: phi=1, 3 colors, no chirality, k=4.
Algorithm algorithm4();
/// §4.2.7, Algorithm 5: phi=1, 2 colors, common chirality, k=3 (optimal).
Algorithm algorithm5();

// --- ASYNC (paper Section 4.3; also correct under SSYNC/FSYNC) -------------
/// §4.3.1, Algorithm 6: phi=2, 3 colors, common chirality, k=2 (optimal).
Algorithm algorithm6();
/// §4.3.2, Algorithm 7: phi=2, 3 colors, no chirality, k=3.
Algorithm algorithm7();
/// §4.3.3, Algorithm 8: phi=2, 2 colors, common chirality, k=3.
Algorithm algorithm8();
/// §4.3.4, Algorithm 9: phi=2, 2 colors, no chirality, k=4.
Algorithm algorithm9();
/// §4.3.5, Algorithm 10: phi=1, 3 colors, common chirality, k=3 (optimal).
Algorithm algorithm10();
/// §4.3.6, Algorithm 11: phi=1, 3 colors, no chirality, k=6.  Proceeding
/// rules R1-R6 follow the paper; the turning rules are our own design with
/// the same contract (see PAPER.md, "Reproduction gaps").
Algorithm algorithm11();

// --- Derived algorithms (color-duplication, paper §4.2.3/4.2.4/4.2.8) ------
/// §4.2.3: phi=2, 1 color, common chirality, k=3 (optimal) — Algorithm 1
/// with the W robot represented by two G robots.
Algorithm derived423();
/// §4.2.4: phi=2, 1 color, no chirality, k=4 — Algorithm 2 transformed.
Algorithm derived424();
/// §4.2.8: phi=1, 2 colors, no chirality, k=5 — Algorithm 4 with the B robot
/// represented by two G robots.
Algorithm derived428();

}  // namespace lumi::algorithms
