// Regenerates the paper's figures as ASCII traces (the kSpecs table in
// figure_printer.cpp maps each figure to its algorithm).  Figures 1-2 show
// model conventions, Fig. 3 the exploration route, Figs. 4-25 algorithm
// execution fragments.
#pragma once

#include <ostream>
#include <vector>

namespace lumi {

std::vector<int> available_figures();

/// Prints figure `figure` to `out`; returns false for unknown ids.
bool print_figure(std::ostream& out, int figure);

}  // namespace lumi
