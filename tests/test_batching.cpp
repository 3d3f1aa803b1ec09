// Batched micro-runs: grouping consecutive same-cell jobs into one worker
// task that builds the cell's plan once is a pure perf change — CSV and
// JSON reports must be byte-identical across batch sizes {1, 4, 16} x
// thread counts, through the orchestrated path, and through a
// kill-and-resume whose legs use different batch sizes.
#include "src/campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/campaign/orchestrate.hpp"
#include "src/trace/report.hpp"

namespace lumi::campaign {
namespace {

Matrix micro_matrix() {
  // Small grids with several seeds: the regime batching exists for.  Mixed
  // schedulers exercise both the sync and async engines through the batch
  // runner, and a walled topology exercises non-grid cells.
  Matrix m;
  m.sections = {"4.2.1", "4.3.1", "4.3.5"};
  m.rows = {4, 5, 1};
  m.cols = {4, 5, 1};
  m.topologies = {"grid", "torus"};
  m.schedulers = {SchedKind::Fsync, SchedKind::SsyncRandom, SchedKind::AsyncRandom};
  m.seeds = {1, 2, 3, 4, 5, 6};
  // Borderless torus cells never terminate; a tight budget keeps them cheap
  // while still producing (identical) budget-exhaustion rows in the report.
  m.options.max_steps = 600;
  return m;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

TEST(Batching, AutoBatchSizeScalesWithCellArea) {
  const Cell tiny{"4.2.1", 4, 4, SchedKind::Fsync, "grid"};
  const Cell mid{"4.2.1", 16, 16, SchedKind::Fsync, "grid"};
  const Cell big{"4.2.1", 64, 64, SchedKind::Fsync, "grid"};
  EXPECT_EQ(auto_batch_size(tiny), 64u);
  EXPECT_EQ(auto_batch_size(mid), 4u);
  EXPECT_EQ(auto_batch_size(big), 1u);
  // Async runs weigh more per node, so they batch shallower at equal area.
  const Cell tiny_async{"4.2.1", 4, 4, SchedKind::AsyncRandom, "grid"};
  EXPECT_LT(auto_batch_size(tiny_async), auto_batch_size(tiny));
  EXPECT_GE(auto_batch_size(tiny_async), 1u);
}

TEST(Batching, ReportsAreByteIdenticalAcrossBatchSizesAndThreads) {
  const Expansion expansion = expand(micro_matrix());
  ASSERT_GT(expansion.jobs.size(), 32u);
  const CampaignSummary reference = run_campaign(expansion, 1, 1);
  const std::string ref_csv = campaign_csv(reference);
  const std::string ref_json = campaign_json(reference);
  for (const std::size_t batch : {std::size_t{0}, std::size_t{4}, std::size_t{16}}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      const CampaignSummary summary = run_campaign(expansion, threads, batch);
      EXPECT_EQ(campaign_csv(summary), ref_csv)
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(campaign_json(summary), ref_json)
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(Batching, OrchestratedReportsMatchAtAnyBatchSize) {
  const Expansion expansion = expand(micro_matrix());
  OrchestratorOptions per_job;
  per_job.threads = 2;
  per_job.batch = 1;
  const OrchestratorReport reference = run_orchestrated(expansion, per_job);
  for (const std::size_t batch : {std::size_t{0}, std::size_t{4}, std::size_t{16}}) {
    OrchestratorOptions opts;
    opts.threads = 2;
    opts.batch = batch;
    const OrchestratorReport report = run_orchestrated(expansion, opts);
    EXPECT_EQ(report.jobs_executed, reference.jobs_executed) << "batch=" << batch;
    EXPECT_EQ(campaign_csv(report.summary), campaign_csv(reference.summary))
        << "batch=" << batch;
    EXPECT_EQ(campaign_json(report.summary), campaign_json(reference.summary))
        << "batch=" << batch;
  }
}

TEST(Batching, ResumeAfterKillCrossesBatchSizes) {
  // A campaign killed mid-way under one batch size must resume under a
  // different one onto the exact bytes of an uninterrupted run: checkpoints
  // record per job, so batch grouping is invisible to kill/resume.
  const Expansion expansion = expand(micro_matrix());
  OrchestratorOptions direct_opts;
  direct_opts.threads = 2;
  const OrchestratorReport direct = run_orchestrated(expansion, direct_opts);

  for (const auto& [first_batch, second_batch] :
       {std::pair<std::size_t, std::size_t>{16, 1}, {1, 16}, {4, 0}}) {
    const std::string path = temp_path("batching-resume.ckpt");
    std::remove(path.c_str());

    OrchestratorOptions first;
    first.threads = 2;
    first.batch = first_batch;
    first.checkpoint_path = path;
    first.max_jobs = 7;  // not a multiple of any batch size in play
    const OrchestratorReport killed = run_orchestrated(expansion, first);
    EXPECT_FALSE(killed.complete);
    EXPECT_EQ(killed.jobs_executed, 7u);

    OrchestratorOptions second;
    second.threads = 2;
    second.batch = second_batch;
    second.checkpoint_path = path;
    const OrchestratorReport resumed = run_orchestrated(expansion, second);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.jobs_skipped, 7u);
    EXPECT_EQ(resumed.jobs_executed, expansion.jobs.size() - 7u);
    EXPECT_EQ(campaign_csv(resumed.summary), campaign_csv(direct.summary))
        << first_batch << " -> " << second_batch;
    EXPECT_EQ(campaign_json(resumed.summary), campaign_json(direct.summary))
        << first_batch << " -> " << second_batch;
    std::remove(path.c_str());
  }
}

TEST(Batching, BatchRunnerMatchesPerJobResults) {
  // Item-level check under the hood of the report identity: every result
  // the batch runner delivers equals run_cell on the same (cell, seed).
  const Cell cell{"4.3.1", 4, 4, SchedKind::SsyncRandom, "grid"};
  const RunOptions options;
  const std::vector<unsigned> seeds = {3, 1, 9, 9, 2};
  std::size_t delivered = 0;
  run_cell_batch(cell, seeds, options,
                 [&](std::size_t item, const RunResult& result) {
                   ASSERT_EQ(item, delivered);
                   ++delivered;
                   const RunResult expected = run_cell(cell, seeds[item], options);
                   EXPECT_EQ(result.terminated, expected.terminated) << item;
                   EXPECT_EQ(result.explored_all, expected.explored_all) << item;
                   EXPECT_EQ(result.failure, expected.failure) << item;
                   EXPECT_EQ(result.stats.instants, expected.stats.instants) << item;
                   EXPECT_EQ(result.stats.moves, expected.stats.moves) << item;
                   EXPECT_EQ(result.visited, expected.visited) << item;
                 });
  EXPECT_EQ(delivered, seeds.size());
}

TEST(Batching, SetupFailureIsReportedOnEveryItem) {
  const Cell bad{"no.such.section", 4, 4, SchedKind::Fsync, "grid"};
  const std::vector<unsigned> seeds = {1, 2, 3};
  std::size_t delivered = 0;
  run_cell_batch(bad, seeds, RunOptions{},
                 [&](std::size_t, const RunResult& result) {
                   ++delivered;
                   EXPECT_FALSE(result.failure.empty());
                 });
  EXPECT_EQ(delivered, seeds.size());
}

}  // namespace
}  // namespace lumi::campaign
