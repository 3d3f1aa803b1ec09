#include "src/campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/algorithms/registry.hpp"
#include "src/campaign/thread_pool.hpp"
#include "src/trace/report.hpp"

namespace lumi::campaign {
namespace {

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, WorkerIndexIsStableAndBounded) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_index(), -1);  // caller is not a pool worker
  std::atomic<int> bad{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&pool, &bad] {
      const int w = pool.worker_index();
      if (w < 0 || w >= static_cast<int>(pool.size())) bad.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  // Regression: shutdown used to drop still-queued tasks (workers exited on
  // stop_ before re-checking the deques), leaving pending_ nonzero.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    // Park both workers so the remaining submissions pile up queued.
    for (unsigned i = 0; i < pool.size(); ++i) {
      pool.submit([&release] {
        while (!release.load()) std::this_thread::yield();
      });
    }
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    release.store(true);
    // No wait_idle(): the destructor itself must run everything.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  pool.wait_idle();  // no tasks: returns immediately
  std::atomic<int> n{0};
  pool.submit([&n] { n.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&n] { n.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(n.load(), 2);
}

// --- aggregation ------------------------------------------------------------

TEST(Aggregate, LongStatMergeIsOrderIndependent) {
  const std::vector<long> samples = {0, 1, 5, 9, 1024, 3, 3, 77};
  LongStat all;
  for (long s : samples) all.add(s);

  LongStat left, right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i % 2 == 0 ? left : right).add(samples[i]);
  }
  LongStat merged = right;  // merge in the "wrong" order on purpose
  merged.merge(left);

  EXPECT_EQ(merged, all);
  EXPECT_EQ(merged.count, 8);
  EXPECT_EQ(merged.min, 0);
  EXPECT_EQ(merged.max, 1024);
  EXPECT_EQ(merged.sum, std::accumulate(samples.begin(), samples.end(), 0LL));
}

TEST(Aggregate, LongStatRejectsNegativeSamples) {
  LongStat s;
  EXPECT_THROW(s.add(-1), std::invalid_argument);
}

TEST(Aggregate, VarianceFromExactSums) {
  LongStat s;
  EXPECT_EQ(s.variance(), 0.0);  // empty stream
  for (long v : {2, 4, 4, 4, 5, 5, 7, 9}) s.add(v);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // the classic population-variance example
  LongStat constant;
  for (int i = 0; i < 5; ++i) constant.add(6);
  EXPECT_DOUBLE_EQ(constant.variance(), 0.0);
}

TEST(Aggregate, PercentileBoundsFollowTheHistogram) {
  LongStat zeros;
  for (int i = 0; i < 10; ++i) zeros.add(0);
  EXPECT_EQ(zeros.percentile(0.5), 0);
  EXPECT_EQ(zeros.percentile(0.99), 0);

  // 99 samples of 1 and one of 1000: p50/p90 sit in the ones bucket, p99+
  // reaches the outlier's bucket (clamped to the true max).
  LongStat skew;
  for (int i = 0; i < 99; ++i) skew.add(1);
  skew.add(1000);
  EXPECT_EQ(skew.percentile(0.50), 1);
  EXPECT_EQ(skew.percentile(0.90), 1);
  EXPECT_EQ(skew.percentile(1.00), 1000);
  EXPECT_GE(skew.percentile(0.995), 512);   // outlier bucket [512, 1024)
  EXPECT_LE(skew.percentile(0.995), 1000);  // never past the observed max

  EXPECT_EQ(LongStat{}.percentile(0.5), 0);  // empty stream
}

TEST(Aggregate, PercentilesAgreeAcrossMergeSplits) {
  const std::vector<long> samples = {0, 1, 5, 9, 1024, 3, 3, 77, 12, 12, 200};
  LongStat all;
  for (long s : samples) all.add(s);
  LongStat left, right;
  for (std::size_t i = 0; i < samples.size(); ++i) (i % 3 == 0 ? left : right).add(samples[i]);
  LongStat merged = right;
  merged.merge(left);
  for (double q : {0.5, 0.9, 0.99}) EXPECT_EQ(merged.percentile(q), all.percentile(q)) << q;
  EXPECT_EQ(merged.sum_squares, all.sum_squares);
}

// --- scheduler taxonomy -----------------------------------------------------

TEST(SchedKindTaxonomy, NamesRoundTrip) {
  for (SchedKind kind : kAllSchedKinds) {
    const auto parsed = sched_from_name(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(sched_from_name("no-such-sched").has_value());
}

TEST(SchedKindTaxonomy, CompatibilityFollowsSynchronyOrder) {
  // FSYNC algorithms only tolerate the FSYNC scheduler...
  EXPECT_TRUE(compatible(Synchrony::Fsync, SchedKind::Fsync));
  EXPECT_FALSE(compatible(Synchrony::Fsync, SchedKind::SsyncRandom));
  EXPECT_FALSE(compatible(Synchrony::Fsync, SchedKind::AsyncRandom));
  // ...SSYNC ones everything synchronous...
  EXPECT_TRUE(compatible(Synchrony::Ssync, SchedKind::Fsync));
  EXPECT_TRUE(compatible(Synchrony::Ssync, SchedKind::SsyncRoundRobin));
  EXPECT_FALSE(compatible(Synchrony::Ssync, SchedKind::AsyncCentralized));
  // ...and ASYNC ones every scheduler.
  for (SchedKind kind : kAllSchedKinds) EXPECT_TRUE(compatible(Synchrony::Async, kind));
}

// --- range parsing ----------------------------------------------------------

TEST(IntRangeParsing, AcceptsTheCliGrammar) {
  const auto single = range_from_string("8");
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->from, 8);
  EXPECT_EQ(single->to, 8);
  EXPECT_EQ(single->step, 1);

  const auto plain = range_from_string("4..64");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->from, 4);
  EXPECT_EQ(plain->to, 64);
  EXPECT_EQ(plain->step, 1);

  const auto stepped = range_from_string("4..64:12");
  ASSERT_TRUE(stepped.has_value());
  EXPECT_EQ(stepped->from, 4);
  EXPECT_EQ(stepped->to, 64);
  EXPECT_EQ(stepped->step, 12);

  // An inverted range is empty, not an error (matches IntRange semantics).
  const auto inverted = range_from_string("6..4");
  ASSERT_TRUE(inverted.has_value());
  EXPECT_TRUE(inverted->values().empty());
}

TEST(IntRangeParsing, RejectsZeroAndNegativeSteps) {
  // Regression: a zero step used to slip into the sweep loop and spin (or a
  // negative one overshoot); the parser must refuse both outright.
  for (const char* bad : {"4..64:0", "4..64:-3", "4..64:-1"}) {
    EXPECT_FALSE(range_from_string(bad).has_value()) << bad;
  }
}

TEST(IntRangeParsing, RejectsMalformedText) {
  for (const char* bad :
       {"", "x", "0", "-4", "4..", "..8", "4..y", "4..8:", "4..8:x", "1e3", "4..8:2:3",
        "99999999999", "4..99999999999"}) {
    EXPECT_FALSE(range_from_string(bad).has_value()) << bad;
  }
}

TEST(IntRangeValues, UpperEndpointIsAlwaysIncluded) {
  // Aligned and misaligned steps both cover `to`: a sweep asked to reach 64
  // columns must actually measure the 64-column edge.
  EXPECT_EQ((IntRange{4, 10, 2}.values()), (std::vector<int>{4, 6, 8, 10}));
  EXPECT_EQ((IntRange{4, 10, 3}.values()), (std::vector<int>{4, 7, 10}));
  EXPECT_EQ((IntRange{4, 64, 12}.values()),
            (std::vector<int>{4, 16, 28, 40, 52, 64}));
  EXPECT_EQ((IntRange{4, 9, 4}.values()), (std::vector<int>{4, 8, 9}));
  EXPECT_EQ((IntRange{5, 5, 7}.values()), (std::vector<int>{5}));
  EXPECT_TRUE((IntRange{6, 4, 1}.values().empty()));
}

TEST(IntRangeValues, NonPositiveStepThrowsInsteadOfSpinning) {
  EXPECT_THROW((IntRange{4, 8, 0}.values()), std::invalid_argument);
  EXPECT_THROW((IntRange{4, 8, -2}.values()), std::invalid_argument);
  // A step far larger than the span must terminate with both endpoints, not
  // overflow the loop variable.
  EXPECT_EQ((IntRange{1, 2, std::numeric_limits<int>::max()}.values()),
            (std::vector<int>{1, 2}));
}

// --- expansion --------------------------------------------------------------

TEST(Expansion, CountsCellsAndJobs) {
  Matrix m;
  m.sections = {"4.3.1"};  // ASYNC algorithm: compatible with everything
  m.rows = {4, 6, 2};      // {4, 6}
  m.cols = {5, 5, 1};      // {5}
  m.schedulers = {SchedKind::Fsync, SchedKind::AsyncRandom};
  m.seeds = {1, 2, 3};
  const Expansion e = expand(m);
  // 2 grids x 2 schedulers = 4 cells; fsync is deterministic (1 job per
  // cell), async-random takes all 3 seeds.
  EXPECT_EQ(e.cells.size(), 4u);
  EXPECT_EQ(e.jobs.size(), 2u * (1 + 3));
}

TEST(Expansion, SkipsIncompatibleSchedulers) {
  Matrix m;
  m.sections = {"4.2.1"};  // FSYNC-only algorithm
  m.rows = {4, 4, 1};
  m.cols = {5, 5, 1};
  m.schedulers = {SchedKind::Fsync, SchedKind::SsyncRandom, SchedKind::AsyncRandom};
  const Expansion e = expand(m);
  ASSERT_EQ(e.cells.size(), 1u);
  EXPECT_EQ(e.cells[0].sched, SchedKind::Fsync);

  m.skip_incompatible = false;
  EXPECT_THROW(expand(m), std::invalid_argument);
}

TEST(Expansion, SkipsGridsBelowAlgorithmMinimum) {
  const Algorithm alg = algorithms::entry("4.2.1").make();
  Matrix m;
  m.sections = {"4.2.1"};
  m.rows = {1, alg.min_rows, 1};       // everything below min_rows is dropped
  m.cols = {alg.min_cols, alg.min_cols, 1};
  m.schedulers = {SchedKind::Fsync};
  const Expansion e = expand(m);
  ASSERT_EQ(e.cells.size(), 1u);
  EXPECT_EQ(e.cells[0].rows, alg.min_rows);

  m.skip_incompatible = false;
  EXPECT_THROW(expand(m), std::invalid_argument);
}

TEST(Expansion, EmptyAndDegenerateMatrices) {
  EXPECT_TRUE(expand(Matrix{}).jobs.empty());

  Matrix no_grids;
  no_grids.sections = {"4.3.1"};
  no_grids.schedulers = {SchedKind::Fsync};
  no_grids.rows = {6, 4, 1};  // from > to: empty range
  no_grids.cols = {4, 6, 1};
  EXPECT_TRUE(expand(no_grids).cells.empty());

  Matrix bad_step = no_grids;
  bad_step.rows = {4, 6, 0};
  EXPECT_THROW(expand(bad_step), std::invalid_argument);

  Matrix unknown;
  unknown.sections = {"9.9.9"};
  EXPECT_THROW(expand(unknown), std::out_of_range);
}

TEST(Expansion, PaperSectionListsMatchTable) {
  EXPECT_EQ(paper_sections().size(), 11u);
  EXPECT_EQ(all_sections().size(), 14u);
}

// --- end-to-end campaigns ---------------------------------------------------

Matrix small_campaign() {
  Matrix m;
  m.sections = {"4.2.1", "4.3.1", "4.3.5"};
  m.rows = {4, 6, 2};
  m.cols = {4, 6, 2};
  m.schedulers = {SchedKind::Fsync, SchedKind::SsyncRandom, SchedKind::AsyncRandom};
  m.seeds = {7, 8};
  return m;
}

TEST(Campaign, RunsAndTerminatesEverywhere) {
  const CampaignSummary s = run_campaign(small_campaign(), 2);
  ASSERT_FALSE(s.cells.empty());
  EXPECT_GT(s.total.runs, 0);
  EXPECT_EQ(s.total.terminated, s.total.runs);
  EXPECT_EQ(s.total.explored_all, s.total.runs);
  EXPECT_EQ(s.total.failures, 0);
  for (const CellSummary& cell : s.cells) {
    EXPECT_EQ(cell.acc.visited.min, cell.cell.rows * cell.cell.cols) << to_string(cell.cell);
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  const Expansion e = expand(small_campaign());
  const CampaignSummary one = run_campaign(e, 1);
  const CampaignSummary four = run_campaign(e, 4);
  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    EXPECT_TRUE(one.cells[i].cell == four.cells[i].cell);
    EXPECT_EQ(one.cells[i].acc, four.cells[i].acc) << to_string(one.cells[i].cell);
  }
  EXPECT_EQ(one.total, four.total);
}

TEST(Campaign, BudgetExhaustionCountsAsFailureNotCrash) {
  Matrix m = small_campaign();
  m.options.max_steps = 1;  // nothing terminates in one instant
  const CampaignSummary s = run_campaign(m, 2);
  EXPECT_EQ(s.total.terminated, 0);
  EXPECT_EQ(s.total.failures, s.total.runs);
}

TEST(Campaign, RunCellMatchesDirectRun) {
  const Cell cell{"4.3.1", 4, 5, SchedKind::AsyncRandom};
  const RunResult r = run_cell(cell, 42, RunOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.visited_count(), 20);
}

// --- report writers ---------------------------------------------------------

TEST(Report, CsvHasHeaderAndOneRowPerCell) {
  const CampaignSummary s = run_campaign(small_campaign(), 2);
  const std::string csv = campaign_csv(s);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, s.cells.size() + 1);
  EXPECT_NE(csv.find("section,rows,cols,topo,sched"), std::string::npos);
  EXPECT_NE(csv.find("4.3.1"), std::string::npos);
}

TEST(Report, JsonMentionsEveryCellAndTotals) {
  const CampaignSummary s = run_campaign(small_campaign(), 2);
  const std::string json = campaign_json(s);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
  EXPECT_NE(json.find("\"total\""), std::string::npos);
  EXPECT_NE(json.find("\"termination_rate\""), std::string::npos);
  std::size_t sections = 0;
  for (std::size_t pos = json.find("\"section\""); pos != std::string::npos;
       pos = json.find("\"section\"", pos + 1)) {
    ++sections;
  }
  EXPECT_EQ(sections, s.cells.size());
}

}  // namespace
}  // namespace lumi::campaign
