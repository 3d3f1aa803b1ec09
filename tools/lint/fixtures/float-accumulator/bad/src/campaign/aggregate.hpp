// Fixture: a float field in a mergeable accumulator — partial sums would
// merge to different bytes depending on which thread ran which job.
#pragma once
struct CellAccumulator {
  long runs = 0;
  double mean_cache = 0.0;
};
