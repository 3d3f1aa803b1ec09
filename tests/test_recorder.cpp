// Flight-recorder contracts (docs/OBSERVABILITY.md#flight-recorder):
//  - replay identity: a recording re-executed through run_with_sched is
//    byte-identical to the original, across every registry algorithm on grid
//    and torus;
//  - diagnosis soundness: a seeded livelock is diagnosed `cycle` with a
//    certified witness, and a budget-limited *terminating* run is diagnosed
//    `budget-exhausted`, never `cycle` (the FSYNC hash-revisit proof and its
//    contrapositive);
//  - format: serialize/parse round-trips, load failure modes;
//  - ring semantics: the newest `capacity` events survive;
//  - campaign capture: capture_anomaly writes a replayable file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"
#include "src/campaign/doctor.hpp"
#include "src/dsl/dsl.hpp"
#include "src/engine/runner.hpp"
#include "src/obs/recorder.hpp"
#include "src/topo/topology.hpp"

#ifndef LUMI_SOURCE_DIR
#define LUMI_SOURCE_DIR "."
#endif

namespace lumi::campaign {
namespace {

std::string temp_path(const char* name) { return testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Records one run of `alg` exactly the way capture_anomaly does: cycle
/// detector armed only under FSYNC, provenance carrying everything a replay
/// needs.
obs::Recording record_run(const Algorithm& alg, const std::string& section,
                          const std::string& topo_spec, int rows, int cols, SchedKind sched,
                          unsigned seed, long max_steps, std::size_t capacity = 4096) {
  const Topology topo = make_topology(topo_spec, rows, cols);
  obs::Recorder rec({.capacity = capacity, .detect_cycles = sched == SchedKind::Fsync});
  rec.set_provenance({.section = section,
                      .algorithm_text = dsl::serialize(alg),
                      .topo_spec = topo.spec(),
                      .rows = rows,
                      .cols = cols,
                      .scheduler = to_string(sched),
                      .seed = seed,
                      .max_steps = max_steps,
                      .require_unique_actions = false});
  RunOptions opts;
  opts.max_steps = max_steps;
  opts.recorder = &rec;
  const RunResult result = run_with_sched(CellPlan(alg, topo), sched, seed, opts);
  return obs::make_recording(rec, result);
}

obs::Recording record_section(const std::string& section, const std::string& topo_spec,
                              SchedKind sched, unsigned seed, long max_steps) {
  const Algorithm alg = algorithms::entry(section).make();
  const int rows = std::max(alg.min_rows, 4);
  const int cols = std::max(alg.min_cols, 5);
  return record_run(alg, section, topo_spec, rows, cols, sched, seed, max_steps);
}

Algorithm blinker() {
  // A deliberately defective table (unvalidated parse: the analyzer would
  // reject it): one robot toggling G<->W in place forever under FSYNC.
  const std::string text = slurp(std::string(LUMI_SOURCE_DIR) +
                                 "/tests/fixtures/recordings/blinker.lumi");
  EXPECT_FALSE(text.empty());
  return dsl::parse(text, {.validate = false, .strict = false});
}

// --- replay identity across the whole registry ------------------------------

TEST(RecorderReplay, IdenticalAcrossRegistryOnGridAndTorus) {
  // FSYNC is the weakest adversary, so every registry entry runs under it.
  // On the torus several algorithms never terminate (they assume a border) —
  // replay identity must hold regardless, so budget-capped runs are fine.
  for (const std::string& section : all_sections()) {
    for (const char* topo : {"grid", "torus"}) {
      SCOPED_TRACE(section + " on " + topo);
      const obs::Recording rec =
          record_section(section, topo, SchedKind::Fsync, 1, 2000);
      const ReplayCheck check = replay_recording(rec);
      EXPECT_TRUE(check.identical())
          << (check.divergences.empty() ? "" : check.divergences.front());
      EXPECT_EQ(obs::recording_serialize(check.replayed), obs::recording_serialize(rec));
    }
  }
}

TEST(RecorderReplay, IdenticalUnderAsyncScheduler) {
  const obs::Recording rec =
      record_section("4.2.1", "grid", SchedKind::AsyncRandom, 9, 5000);
  const ReplayCheck check = replay_recording(rec);
  EXPECT_TRUE(check.identical())
      << (check.divergences.empty() ? "" : check.divergences.front());
}

TEST(RecorderReplay, SeedDivergenceIsReported) {
  obs::Recording rec = record_section("4.2.1", "grid", SchedKind::SsyncRandom, 3, 5000);
  rec.prov.seed = 4;  // replay under the wrong seed: must not silently pass
  const ReplayCheck check = replay_recording(rec);
  EXPECT_FALSE(check.identical());
}

// --- termination diagnosis --------------------------------------------------

TEST(RecorderDiagnosis, LivelockIsDiagnosedCycleWithCertifiedWitness) {
  const Algorithm alg = blinker();
  const obs::Recording rec =
      record_run(alg, "", "grid", alg.min_rows, alg.min_cols, SchedKind::Fsync, 1, 25);
  ASSERT_EQ(rec.diagnosis, obs::Diagnosis::Cycle);
  ASSERT_TRUE(rec.cycle.has_value());
  EXPECT_EQ(rec.cycle->start, 0);
  EXPECT_EQ(rec.cycle->length, 2);  // G -> W -> G
  std::string why;
  EXPECT_TRUE(certify_cycle(rec, why)) << why;
}

TEST(RecorderDiagnosis, BudgetLimitedTerminatingRunIsNeverCycle) {
  // 4.2.1 terminates on 4x5 given budget; starved to 5 instants it cannot
  // have revisited a configuration (contrapositive of the FSYNC cycle
  // proof), so the diagnosis must be budget-exhausted, never cycle.
  const obs::Recording rec = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 5);
  EXPECT_FALSE(rec.terminated);
  EXPECT_EQ(rec.diagnosis, obs::Diagnosis::BudgetExhausted);
  EXPECT_FALSE(rec.cycle.has_value());
}

TEST(RecorderDiagnosis, CleanTerminationIsTerminated) {
  const obs::Recording rec = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  EXPECT_TRUE(rec.terminated);
  EXPECT_EQ(rec.diagnosis, obs::Diagnosis::Terminated);
}

TEST(RecorderDiagnosis, CertifyRejectsRecordingWithoutWitness) {
  const obs::Recording rec = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  std::string why;
  EXPECT_FALSE(certify_cycle(rec, why));
  EXPECT_FALSE(why.empty());
}

// --- ring-buffer semantics --------------------------------------------------

TEST(RecorderRing, KeepsNewestEventsOldestFirst) {
  const Algorithm alg = algorithms::entry("4.2.1").make();
  const obs::Recording full =
      record_run(alg, "4.2.1", "grid", 4, 5, SchedKind::Fsync, 1, 100000);
  ASSERT_GT(full.events_seen, 8);
  ASSERT_EQ(static_cast<long long>(full.events.size()), full.events_seen);

  const obs::Recording capped = record_run(alg, "4.2.1", "grid", 4, 5, SchedKind::Fsync, 1,
                                           100000, /*capacity=*/8);
  EXPECT_EQ(capped.events_seen, full.events_seen);
  ASSERT_EQ(capped.events.size(), 8u);
  // The surviving tail is exactly the newest 8 events, in order.
  const std::vector<obs::RecordedEvent> want(full.events.end() - 8, full.events.end());
  EXPECT_EQ(capped.events, want);

  // A capacity is a bound, never an up-front allocation: a file may name
  // any capacity >= 1, and replay builds its recorder from that number.
  const obs::Recording roomy = record_run(alg, "4.2.1", "grid", 4, 5, SchedKind::Fsync, 1,
                                          100000, /*capacity=*/1'000'000'000'000);
  EXPECT_EQ(roomy.events, full.events);
}

// --- format -----------------------------------------------------------------

TEST(RecorderFormat, SerializeParseRoundTripIsIdentity) {
  for (SchedKind sched : {SchedKind::Fsync, SchedKind::AsyncRandom}) {
    const obs::Recording rec = record_section("4.3.1", "grid", sched, 2, 3000);
    const std::string text = obs::recording_serialize(rec);
    const obs::Recording parsed = obs::recording_parse(text);
    EXPECT_EQ(parsed, rec);
    EXPECT_EQ(obs::recording_serialize(parsed), text);  // canonical: fixed point
  }
}

TEST(RecorderFormat, WriteThenLoadRoundTrips) {
  const obs::Recording rec = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  const std::string path = temp_path("recorder_roundtrip.lumirec");
  ASSERT_TRUE(obs::recording_write(path, rec));
  const auto loaded = obs::recording_load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, rec);
}

TEST(RecorderFormat, LoadMissingFileIsNullopt) {
  EXPECT_FALSE(obs::recording_load(temp_path("no_such_recording.lumirec")).has_value());
}

TEST(RecorderFormat, LoadMalformedFileThrows) {
  const std::string path = temp_path("recorder_malformed.lumirec");
  const auto expect_rejected = [&path](const std::string& text) {
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    try {
      (void)obs::recording_load(path);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos) << e.what();
    }
  };
  expect_rejected("lumirec 1\ncapacity banana\n");
  expect_rejected("not-a-recording\n");

  // Hostile framing in an otherwise valid recording: negative or oversized
  // counts, a capacity below 1, and hashes that are not 16 hex digits.
  const Algorithm alg = blinker();
  const obs::Recording rec =
      record_run(alg, "", "grid", alg.min_rows, alg.min_cols, SchedKind::Fsync, 1, 25);
  ASSERT_TRUE(rec.cycle.has_value());
  const std::string good = obs::recording_serialize(rec);
  const auto swap_line = [&good](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find("\n" + from + "\n");
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at + 1, from.size(), to);
    return text;
  };
  const auto alg_lines = static_cast<std::size_t>(
      std::count(rec.prov.algorithm_text.begin(), rec.prov.algorithm_text.end(), '\n'));
  const std::pair<std::string, std::size_t> counts[] = {{"algorithm", alg_lines},
                                                        {"init", rec.initial.size()},
                                                        {"events", rec.events.size()},
                                                        {"final", rec.final_robots.size()}};
  for (const auto& [key, n] : counts) {
    for (const char* bad : {"-1", "1000000000000"}) {
      expect_rejected(swap_line(key + " " + std::to_string(n), key + " " + bad));
    }
  }
  expect_rejected(swap_line("events-seen " + std::to_string(rec.events_seen), "events-seen -1"));
  expect_rejected(swap_line("capacity 4096", "capacity 0"));
  expect_rejected(swap_line("capacity 4096", "capacity -1"));
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(rec.cycle->hash));
  const std::string cycle = "cycle " + std::to_string(rec.cycle->start) + ' ' +
                            std::to_string(rec.cycle->length) + ' ';
  for (const std::string& bad :
       {std::string("zz"), std::string(hash) + "zz", "0x" + std::string(hash, 14)}) {
    expect_rejected(swap_line(cycle + hash, cycle + bad));
  }
}

// --- doctor rendering -------------------------------------------------------

TEST(RecorderDoctor, TimelineAndRuleCountsRender) {
  const obs::Recording rec = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  const std::string timeline = per_robot_timeline(rec);
  EXPECT_NE(timeline.find("robot 0"), std::string::npos);
  const std::string counts = rule_fire_counts(rec);
  EXPECT_FALSE(counts.empty());
}

TEST(RecorderDoctor, DiffIsEmptyOnIdenticalAndNamesDivergence) {
  const obs::Recording a = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  obs::Recording b = a;
  EXPECT_EQ(diff_recordings(a, b), "");
  b.prov.seed = 99;
  const std::string diff = diff_recordings(a, b);
  EXPECT_NE(diff.find("seed"), std::string::npos);
  obs::Recording c = a;
  ASSERT_FALSE(c.events.empty());
  c.events.front().robot += 1;
  EXPECT_FALSE(diff_recordings(a, c).empty());
}

// --- campaign capture -------------------------------------------------------

TEST(RecorderCapture, CaptureAnomalyWritesReplayableFile) {
  const std::string dir = testing::TempDir() + "recorder_capture";
  std::filesystem::create_directories(dir);
  Cell cell;
  cell.section = "4.2.1";
  cell.rows = 4;
  cell.cols = 5;
  cell.sched = SchedKind::Fsync;
  cell.topo = "grid";
  RunOptions base;
  base.max_steps = 5;  // starve the run so it is anomalous
  ASSERT_TRUE(capture_anomaly(cell, 0, base, {.dir = dir, .limit = 8}));
  const std::string path = dir + "/anomaly-4.2.1-4x5-grid-fsync-s0.lumirec";
  const auto rec = obs::recording_load(path);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->diagnosis, obs::Diagnosis::BudgetExhausted);
  EXPECT_TRUE(replay_recording(*rec).identical());
}

TEST(RecorderCapture, CaptureAnomalyToleratesUnwritableDir) {
  Cell cell;
  cell.section = "4.2.1";
  cell.rows = 4;
  cell.cols = 5;
  RunOptions base;
  base.max_steps = 5;
  EXPECT_FALSE(capture_anomaly(cell, 0, base, {.dir = "/nonexistent/dir", .limit = 1}));
}

}  // namespace
}  // namespace lumi::campaign
