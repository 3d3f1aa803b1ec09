// Shared by the Table-1 sweep tests: a campaign over one registry section
// whose every run must terminate with full coverage.
#pragma once

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"

namespace lumi {

/// Runs `section` on every grid from its minimum up to max_rows x max_cols
/// under every scheduler its model allows (seeds 1..6 for the random ones)
/// and expects every cell to be all runs terminated, all runs explored and
/// no failure.  The sync engines also fail a run as soon as a robot has two
/// distinct enabled behaviors.
inline void expect_sweep_explores(const std::string& section, int max_rows, int max_cols) {
  const Algorithm alg = algorithms::entry(section).make();
  campaign::Matrix matrix;
  matrix.sections = {section};
  matrix.rows = {alg.min_rows, max_rows};
  matrix.cols = {alg.min_cols, max_cols};
  matrix.schedulers.assign(std::begin(campaign::kAllSchedKinds),
                           std::end(campaign::kAllSchedKinds));
  matrix.seeds = {1, 2, 3, 4, 5, 6};
  matrix.options.require_unique_actions = true;
  const campaign::CampaignSummary summary = campaign::run_campaign(matrix);

  // Every (grid, compatible scheduler) pair is a cell: nothing was skipped.
  std::size_t kinds = 0;
  for (campaign::SchedKind kind : campaign::kAllSchedKinds) {
    if (campaign::compatible(alg.model, kind)) ++kinds;
  }
  const auto grids =
      static_cast<std::size_t>((max_rows - alg.min_rows + 1) * (max_cols - alg.min_cols + 1));
  EXPECT_EQ(summary.cells.size(), grids * kinds);
  for (const campaign::CellSummary& cell : summary.cells) {
    const campaign::CellAccumulator& acc = cell.acc;
    EXPECT_TRUE(acc.runs > 0 && acc.terminated == acc.runs && acc.explored_all == acc.runs &&
                acc.failures == 0)
        << campaign::to_string(cell.cell) << ": " << acc.runs << " runs, " << acc.terminated
        << " terminated, " << acc.explored_all << " explored, " << acc.failures << " failed";
  }
}

}  // namespace lumi
