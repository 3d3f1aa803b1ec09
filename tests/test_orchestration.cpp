// Orchestration subsystem: deterministic sharding, checkpoint round-trips,
// shard-union == full-run byte identity, resume-after-kill, and adaptive
// seed escalation.
#include "src/campaign/orchestrate.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "src/campaign/checkpoint.hpp"
#include "src/campaign/shard.hpp"
#include "src/trace/report.hpp"

namespace lumi::campaign {
namespace {

Matrix small_matrix() {
  Matrix m;
  m.sections = {"4.2.1", "4.3.1", "4.3.5"};
  m.rows = {4, 6, 2};
  m.cols = {4, 6, 2};
  m.schedulers = {SchedKind::Fsync, SchedKind::SsyncRandom, SchedKind::AsyncRandom};
  m.seeds = {7, 8};
  return m;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

// --- sharding ---------------------------------------------------------------

TEST(Shard, SpecParsingRoundTrips) {
  const auto spec = shard_from_string("2/7");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->index, 2u);
  EXPECT_EQ(spec->count, 7u);
  EXPECT_EQ(to_string(*spec), "2/7");

  // The last two overflow unsigned; a wrapping parse reads them as 0/1 and 1/2.
  for (const char* bad : {"", "3", "/3", "2/", "3/3", "4/3", "a/b", "1/2/3", "-1/3",
                          "4294967296/4294967297", "4294967297/4294967298"}) {
    EXPECT_FALSE(shard_from_string(bad).has_value()) << bad;
  }
}

TEST(Shard, PartitionIsExactAndDisjoint) {
  const Expansion full = expand(small_matrix());
  ASSERT_GT(full.jobs.size(), 7u);
  for (unsigned n : {1u, 2u, 3u, 7u}) {
    std::set<std::pair<std::size_t, unsigned>> seen;
    std::size_t total = 0;
    for (unsigned i = 0; i < n; ++i) {
      const Expansion piece = shard(full, {i, n});
      EXPECT_EQ(piece.cells.size(), full.cells.size());  // cells always align
      for (const Job& job : piece.jobs) {
        EXPECT_TRUE(seen.insert({job.cell, job.seed}).second) << "overlap at n=" << n;
      }
      total += piece.jobs.size();
    }
    EXPECT_EQ(total, full.jobs.size()) << "union incomplete at n=" << n;
  }
}

TEST(Shard, InvalidSpecsThrow) {
  const Expansion full = expand(small_matrix());
  EXPECT_THROW(shard(full, {0, 0}), std::invalid_argument);
  EXPECT_THROW(shard(full, {3, 3}), std::invalid_argument);
}

// --- checkpoint format ------------------------------------------------------

TEST(Checkpoint, SerializeParseSerializeIsByteIdentical) {
  const Expansion e = expand(small_matrix());
  const OrchestratorReport run = run_orchestrated(e, {});
  const std::string first = checkpoint_serialize(run.checkpoint);
  const Checkpoint parsed = checkpoint_parse(first);
  EXPECT_EQ(parsed, run.checkpoint);
  EXPECT_EQ(checkpoint_serialize(parsed), first);
}

TEST(Checkpoint, HostileSectionNamesSurviveTheRoundTrip) {
  Checkpoint ck;
  ck.fingerprint = 0xdeadbeefcafef00dULL;
  CheckpointCell cell;
  cell.cell = Cell{"4.2.1 \"hostile\", 100% a\\b\nnewline", 4, 5, SchedKind::Fsync};
  cell.seeds_done = {0, 3, 9};
  ck.cells.push_back(cell);
  const std::string text = checkpoint_serialize(ck);
  // The encoded section must not break the line-oriented format.
  const Checkpoint parsed = checkpoint_parse(text);
  EXPECT_EQ(parsed, ck);
  EXPECT_EQ(checkpoint_serialize(parsed), text);
}

TEST(Checkpoint, MalformedInputsThrow) {
  const Expansion e = expand(small_matrix());
  const std::string good = checkpoint_serialize(make_checkpoint(e));
  EXPECT_THROW(checkpoint_parse(""), std::runtime_error);
  EXPECT_THROW(checkpoint_parse("not a checkpoint\n"), std::runtime_error);
  EXPECT_THROW(checkpoint_parse(good.substr(0, good.size() / 2)), std::runtime_error);
  std::string wrong_version = good;
  wrong_version.replace(wrong_version.find(" v2"), 3, " v9");
  EXPECT_THROW(checkpoint_parse(wrong_version), std::runtime_error);

  // Hostile framing in an otherwise valid checkpoint: negative or oversized
  // counts, and fingerprints that are not exactly 16 hex digits.
  const auto expect_rejected = [](const std::string& text) {
    try {
      (void)checkpoint_parse(text);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos) << e.what();
    }
  };
  const auto swap_line = [&good](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find("\n" + from + "\n");
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at + 1, from.size(), to);
    return text;
  };
  const std::string cells = "cells " + std::to_string(e.cells.size());
  for (const std::string bad : {"-1", "1000000000000"}) {
    expect_rejected(swap_line(cells, "cells " + bad));
    expect_rejected(swap_line("seeds 0", "seeds " + bad));
  }
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(expansion_fingerprint(e)));
  const std::string fp = fingerprint;
  for (const std::string& bad : {fp.substr(0, 14) + "zz", "0x" + fp.substr(0, 14),
                                 "-" + fp.substr(0, 15), fp + "0"}) {
    expect_rejected(swap_line("fingerprint " + fp, "fingerprint " + bad));
  }
  // Content past a record's last field, and any line after 'end'.
  expect_rejected(swap_line(cells, cells + " junk"));
  expect_rejected(swap_line("acc 0 0 0 0", "acc 0 0 0 0 99"));
  expect_rejected(swap_line("seeds 0", "seeds 0 7"));
  expect_rejected(swap_line("end", "end junk"));
  expect_rejected(good + "end\n");
  // A negative seed would wrap into unsigned.
  expect_rejected(swap_line("seeds 0", "seeds 1 -1"));
  // One number rule and single-space fields: no '+' sign, no doubled space,
  // tab or trailing whitespace between fields.
  const std::size_t cell_at = good.find("\ncell 0 ") + 1;
  const std::string cell0 = good.substr(cell_at, good.find('\n', cell_at) - cell_at);
  expect_rejected(swap_line(cell0, "cell 0 +" + cell0.substr(7)));
  expect_rejected(swap_line(cell0, "cell 0  " + cell0.substr(7)));
  expect_rejected(swap_line(cell0, cell0 + " "));
  expect_rejected(swap_line(cell0, cell0 + "\t"));
  expect_rejected(swap_line("acc 0 0 0 0", "acc 0\t0 0 0"));
  expect_rejected(swap_line("acc 0 0 0 0", "acc 0 0 0 +0"));

  // Accumulators that no run could produce, each an edit of a cell holding
  // two runs (which parses back unchanged).
  Checkpoint ran = make_checkpoint(e);
  RunResult result;
  result.terminated = result.explored_all = true;
  result.visited.assign(4, true);
  for (const long n : {5, 9}) {
    result.stats.instants = n;
    ran.cells[0].acc.add(result);
  }
  ran.cells[0].seeds_done = {7, 8};
  EXPECT_EQ(checkpoint_parse(checkpoint_serialize(ran)), ran);
  using Edit = void (*)(CellAccumulator&);
  const Edit edits[] = {
      [](CellAccumulator& a) { a.terminated = 3; },  // outcome counts outside [0, runs]
      [](CellAccumulator& a) { a.explored_all = 3; },
      [](CellAccumulator& a) { a.failures = 3; },
      [](CellAccumulator& a) { a.failures = -1; },
      [](CellAccumulator& a) { std::swap(a.instants.min, a.instants.max); },
      [](CellAccumulator& a) { a.instants.min = -1; },
      [](CellAccumulator& a) { a.instants.count = 3; },       // one sample per run
      [](CellAccumulator& a) { ++a.instants.histogram[0]; },  // buckets past the count
      [](CellAccumulator& a) {
        a.instants.histogram[0] = -1;  // buckets that sum to the count through a negative one
        ++a.instants.histogram[3];
      },
      [](CellAccumulator& a) {
        a = {};  // an empty stream is all zeros
        a.instants.max = 5;
      },
      // A sum outside [count * min, count * max]: LLONG_MAX would overflow a merge.
      [](CellAccumulator& a) { a.instants.sum = std::numeric_limits<long long>::max(); },
      [](CellAccumulator& a) { a.instants.sum = a.instants.min; },
  };
  for (const Edit edit : edits) {
    Checkpoint bad = ran;
    edit(bad.cells[0].acc);
    expect_rejected(checkpoint_serialize(bad));
  }
}

TEST(Checkpoint, NonHexEscapesAreRejected) {
  Checkpoint ck;
  CheckpointCell cell;
  cell.cell = Cell{"name\nwith newline", 4, 5, SchedKind::Fsync};
  ck.cells.push_back(cell);
  std::string text = checkpoint_serialize(ck);
  const std::size_t escape = text.find("%0a");
  ASSERT_NE(escape, std::string::npos);
  // strtol would happily parse "-1"; the parser must reject it instead of
  // decoding a wrong byte.
  text.replace(escape, 3, "%-1");
  EXPECT_THROW(checkpoint_parse(text), std::runtime_error);
}

TEST(Checkpoint, WriteThenLoadRoundTrips) {
  const std::string path = temp_path("roundtrip.ckpt");
  const Expansion e = expand(small_matrix());
  const Checkpoint ck = make_checkpoint(e);
  ASSERT_TRUE(checkpoint_write(path, ck));
  const auto loaded = checkpoint_load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, ck);
  std::remove(path.c_str());
  EXPECT_FALSE(checkpoint_load(path).has_value());
  EXPECT_THROW(checkpoint_load(testing::TempDir()), std::runtime_error);  // exists, unreadable
}

TEST(Checkpoint, FingerprintSeparatesMatrices) {
  const Expansion a = expand(small_matrix());
  Matrix other = small_matrix();
  other.options.max_steps += 1;
  EXPECT_NE(expansion_fingerprint(a), expansion_fingerprint(expand(other)));
  Matrix fewer = small_matrix();
  fewer.sections.pop_back();
  EXPECT_NE(expansion_fingerprint(a), expansion_fingerprint(expand(fewer)));
  // Shards of one matrix share the fingerprint: only cells + options count.
  EXPECT_EQ(expansion_fingerprint(a), expansion_fingerprint(shard(a, {0, 3})));
}

// --- shard merge == single-process run --------------------------------------

TEST(Merge, AnyShardingReproducesTheSingleProcessRunByteForByte) {
  const Expansion full = expand(small_matrix());
  const CampaignSummary direct = run_campaign(full, 1);
  const std::string want_csv = campaign_csv(direct);
  const std::string want_json = campaign_json(direct);

  for (unsigned n : {1u, 2u, 3u, 7u}) {
    Checkpoint merged;
    // Fold the shards in reverse order on purpose: merge order must not
    // matter either.
    for (unsigned i = n; i-- > 0;) {
      const OrchestratorReport piece = run_orchestrated(shard(full, {i, n}), {});
      if (i + 1 == n) {
        merged = piece.checkpoint;
      } else {
        checkpoint_merge(merged, piece.checkpoint);
      }
    }
    const CampaignSummary summary = checkpoint_summary(merged);
    EXPECT_EQ(campaign_csv(summary), want_csv) << "n=" << n;
    EXPECT_EQ(campaign_json(summary), want_json) << "n=" << n;
  }
}

TEST(Merge, OverlappingShardsAreRejected) {
  const Expansion full = expand(small_matrix());
  const OrchestratorReport a = run_orchestrated(shard(full, {0, 2}), {});
  Checkpoint merged = a.checkpoint;
  EXPECT_THROW(checkpoint_merge(merged, a.checkpoint), std::invalid_argument);
}

TEST(Merge, DifferentMatricesAreRejected) {
  Matrix other = small_matrix();
  other.options.max_steps += 1;
  Checkpoint a = make_checkpoint(expand(small_matrix()));
  const Checkpoint b = make_checkpoint(expand(other));
  EXPECT_THROW(checkpoint_merge(a, b), std::invalid_argument);
}

// --- resume -----------------------------------------------------------------

TEST(Resume, KilledCampaignResumesWithoutRerunningCompletedJobs) {
  const std::string path = temp_path("resume.ckpt");
  std::remove(path.c_str());
  const Expansion full = expand(small_matrix());

  // "Kill" the campaign mid-run: cap this invocation at 5 jobs.  The final
  // flush persists exactly the completed slice.
  OrchestratorOptions first;
  first.checkpoint_path = path;
  first.max_jobs = 5;
  const OrchestratorReport killed = run_orchestrated(full, first);
  EXPECT_FALSE(killed.complete);
  EXPECT_EQ(killed.jobs_executed, 5u);
  ASSERT_TRUE(checkpoint_load(path).has_value());

  // The resume must run only the remainder and land on the exact bytes of
  // the uninterrupted single-process run.
  OrchestratorOptions second;
  second.checkpoint_path = path;
  const OrchestratorReport resumed = run_orchestrated(full, second);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.jobs_skipped, 5u);
  EXPECT_EQ(resumed.jobs_executed, full.jobs.size() - 5u);

  const CampaignSummary direct = run_campaign(full, 1);
  EXPECT_EQ(campaign_csv(resumed.summary), campaign_csv(direct));
  EXPECT_EQ(campaign_json(resumed.summary), campaign_json(direct));
  std::remove(path.c_str());
}

TEST(Resume, KilledAdaptiveCampaignResumesIdenticallyWithTrackingOnAndOff) {
  // The incremental engine must be invisible to checkpoint/resume: a
  // killed-and-resumed adaptive campaign lands on reports byte-identical to
  // the fresh uninterrupted run, for every combination of dirty tracking
  // during the first (killed) leg and during the resume — including mixed
  // legs, since the checkpoint format carries no trace of the engine mode.
  Matrix m = small_matrix();
  m.options.max_steps = 40;  // some runs exhaust the budget: escalation fires
  const Expansion fresh_expansion = expand(m);
  OrchestratorOptions adaptive;
  adaptive.adaptive.enabled = true;
  adaptive.adaptive.seeds_per_round = 1;
  adaptive.adaptive.max_extra_seeds = 2;
  const OrchestratorReport fresh = run_orchestrated(fresh_expansion, adaptive);
  const std::string want_csv = campaign_csv(fresh.summary);
  const std::string want_json = campaign_json(fresh.summary);

  for (const bool first_incremental : {true, false}) {
    for (const bool resume_incremental : {true, false}) {
      const std::string path = temp_path("resume-incremental.ckpt");
      std::remove(path.c_str());
      Expansion killed_leg = fresh_expansion;
      killed_leg.options.incremental = first_incremental;
      OrchestratorOptions first = adaptive;
      first.checkpoint_path = path;
      first.max_jobs = 7;
      const OrchestratorReport killed = run_orchestrated(killed_leg, first);
      EXPECT_FALSE(killed.complete);

      Expansion resume_leg = fresh_expansion;
      resume_leg.options.incremental = resume_incremental;
      OrchestratorOptions second = adaptive;
      second.checkpoint_path = path;
      const OrchestratorReport resumed = run_orchestrated(resume_leg, second);
      EXPECT_TRUE(resumed.complete);
      const std::string context = std::string("first=") + (first_incremental ? "inc" : "rec") +
                                  " resume=" + (resume_incremental ? "inc" : "rec");
      EXPECT_EQ(campaign_csv(resumed.summary), want_csv) << context;
      EXPECT_EQ(campaign_json(resumed.summary), want_json) << context;
      std::remove(path.c_str());
    }
  }
}

TEST(Resume, UnwritableCheckpointPathFailsLoudly) {
  // Flush failures must not end with "progress persisted" signaling: a path
  // that can never be written (missing directory) has to surface as an
  // error, not a silent no-op.
  OrchestratorOptions opts;
  opts.checkpoint_path = temp_path("no-such-dir/x.ckpt");
  EXPECT_THROW(run_orchestrated(expand(small_matrix()), opts), std::runtime_error);
}

TEST(Resume, ForeignCheckpointIsRefused) {
  const std::string path = temp_path("foreign.ckpt");
  Matrix other = small_matrix();
  other.options.max_steps += 1;
  ASSERT_TRUE(checkpoint_write(path, make_checkpoint(expand(other))));
  OrchestratorOptions opts;
  opts.checkpoint_path = path;
  EXPECT_THROW(run_orchestrated(expand(small_matrix()), opts), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Resume, CompletedCampaignRerunExecutesNothing) {
  const std::string path = temp_path("noop.ckpt");
  std::remove(path.c_str());
  const Expansion full = expand(small_matrix());
  OrchestratorOptions opts;
  opts.checkpoint_path = path;
  const OrchestratorReport first = run_orchestrated(full, opts);
  EXPECT_EQ(first.jobs_executed, full.jobs.size());
  const OrchestratorReport again = run_orchestrated(full, opts);
  EXPECT_EQ(again.jobs_executed, 0u);
  EXPECT_EQ(again.jobs_skipped, full.jobs.size());
  EXPECT_EQ(again.summary.total, first.summary.total);
  std::remove(path.c_str());
}

TEST(Orchestration, CheckpointFlushIntervalMustBeFiniteAndPositive) {
  // std::chrono's conversion of a non-finite interval to integer ticks is
  // undefined, so the library refuses one before any job runs.
  const std::string path = temp_path("flush.ckpt");
  std::remove(path.c_str());
  OrchestratorOptions opts;
  opts.checkpoint_path = path;
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    opts.flush_seconds = bad;
    EXPECT_THROW(run_orchestrated(expand(small_matrix()), opts), std::invalid_argument) << bad;
  }
  // Without a checkpoint nothing is flushed, so the interval is not read.
  opts.checkpoint_path.clear();
  EXPECT_NO_THROW(run_orchestrated(expand(small_matrix()), opts));
  std::remove(path.c_str());
}

// --- adaptive seed escalation -----------------------------------------------

TEST(Adaptive, HealthyCampaignNeverEscalates) {
  OrchestratorOptions opts;
  opts.adaptive.enabled = true;
  const OrchestratorReport report = run_orchestrated(expand(small_matrix()), opts);
  EXPECT_EQ(report.escalation_jobs, 0u);
  EXPECT_EQ(report.escalation_rounds, 0u);
}

TEST(Adaptive, FailingCellsReceiveExtraSeedsUpToTheBudget) {
  Matrix m;
  m.sections = {"4.3.1"};
  m.rows = {4, 4, 1};
  m.cols = {4, 4, 1};
  m.schedulers = {SchedKind::Fsync, SchedKind::AsyncRandom};
  m.seeds = {1, 2};
  m.options.max_steps = 3;  // nothing terminates: every cell is unhealthy

  OrchestratorOptions opts;
  opts.adaptive.enabled = true;
  opts.adaptive.seeds_per_round = 2;
  opts.adaptive.max_extra_seeds = 5;
  const OrchestratorReport report = run_orchestrated(expand(m), opts);

  // Only the async-random cell escalates (fsync is deterministic); rounds of
  // 2 against a budget of 5 take 2+2+1 extra seeds over 3 rounds.
  EXPECT_EQ(report.escalation_jobs, 5u);
  EXPECT_EQ(report.escalation_rounds, 3u);
  for (const CellSummary& cell : report.summary.cells) {
    if (cell.cell.sched == SchedKind::AsyncRandom) {
      EXPECT_EQ(cell.acc.runs, 2 + 5);  // base seeds + escalations
    } else {
      EXPECT_EQ(cell.acc.runs, 1);  // deterministic: single job, no escalation
    }
  }
}

TEST(Adaptive, CellsOwnedByOtherShardsNeverEscalate) {
  // A shard sees every cell but only its own jobs; cells with zero local
  // base jobs have empty (hence "unhealthy"-looking) stats and must be
  // excluded from escalation — otherwise two shards would inject the same
  // extra seeds and their checkpoints could no longer merge.
  Matrix m;
  m.sections = {"4.3.1"};
  m.rows = {4, 6, 2};  // two cells
  m.cols = {4, 4, 1};
  m.schedulers = {SchedKind::AsyncRandom};
  m.seeds = {1};
  m.options.max_steps = 3;  // nothing terminates: every owned cell escalates

  const Expansion full = expand(m);
  ASSERT_EQ(full.jobs.size(), 2u);
  OrchestratorOptions opts;
  opts.adaptive.enabled = true;
  opts.adaptive.seeds_per_round = 2;
  opts.adaptive.max_extra_seeds = 2;
  const OrchestratorReport report = run_orchestrated(shard(full, {0, 2}), opts);
  ASSERT_EQ(report.checkpoint.cells.size(), 2u);
  EXPECT_EQ(report.checkpoint.cells[0].seeds_done.size(), 3u);  // 1 base + 2 extra
  EXPECT_TRUE(report.checkpoint.cells[1].seeds_done.empty());   // other shard's cell
}

TEST(Adaptive, EscalationSeedsContinuePastTheBaseSet) {
  Matrix m;
  m.sections = {"4.3.1"};
  m.rows = {4, 4, 1};
  m.cols = {4, 4, 1};
  m.schedulers = {SchedKind::AsyncRandom};
  m.seeds = {10, 20};
  m.options.max_steps = 3;

  OrchestratorOptions opts;
  opts.adaptive.enabled = true;
  opts.adaptive.seeds_per_round = 3;
  opts.adaptive.max_extra_seeds = 3;
  const OrchestratorReport report = run_orchestrated(expand(m), opts);
  ASSERT_EQ(report.checkpoint.cells.size(), 1u);
  const std::vector<unsigned> want = {10, 20, 21, 22, 23};  // continues after max base seed
  EXPECT_EQ(report.checkpoint.cells[0].seeds_done, want);
}

}  // namespace
}  // namespace lumi::campaign
