// Flight-recorder contracts (docs/OBSERVABILITY.md#flight-recorder):
//  - replay identity: a recording re-executed through run_with_sched is
//    byte-identical to the original, across every registry algorithm on grid
//    and torus;
//  - diagnosis soundness: a seeded livelock is diagnosed `cycle` with a
//    certified witness, and a budget-limited *terminating* run is diagnosed
//    `budget-exhausted`, never `cycle` (the FSYNC hash-revisit proof and its
//    contrapositive);
//  - format: serialize/parse round-trips, load failure modes, and the
//    verdicts on the fixture recordings in ci/fixtures/check_recording;
//  - ring semantics: the newest `capacity` events survive;
//  - campaign capture: capture_anomaly writes a replayable file.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

/// Records one run of `alg` through record_run with capture_options, as
/// capture_anomaly does.
obs::Recording record_alg(const Algorithm& alg, const std::string& section,
                          const std::string& topo_spec, int rows, int cols, SchedKind sched,
                          unsigned seed, long max_steps, std::size_t capacity = 4096) {
  return record_run(capture_options(to_string(sched), capacity),
                    {.section = section,
                     .algorithm_text = dsl::serialize(alg),
                     .topo_spec = make_topology(topo_spec, rows, cols).spec(),
                     .rows = rows,
                     .cols = cols,
                     .scheduler = to_string(sched),
                     .seed = seed,
                     .max_steps = max_steps,
                     .require_unique_actions = false});
}

obs::Recording record_section(const std::string& section, const std::string& topo_spec,
                              SchedKind sched, unsigned seed, long max_steps) {
  const Algorithm alg = algorithms::entry(section).make();
  const int rows = std::max(alg.min_rows, 4);
  const int cols = std::max(alg.min_cols, 5);
  return record_alg(alg, section, topo_spec, rows, cols, sched, seed, max_steps);
}

Algorithm blinker() {
  // A deliberately defective table (unvalidated parse: the analyzer would
  // reject it): one robot toggling G<->W in place forever under FSYNC.
  const std::string text = slurp(std::string(LUMI_SOURCE_DIR) +
                                 "/tests/fixtures/recordings/blinker.lumi");
  EXPECT_FALSE(text.empty());
  return dsl::parse(text);
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
      const std::vector<std::string> divergences = replay_recording(rec);
      EXPECT_TRUE(divergences.empty()) << (divergences.empty() ? "" : divergences.front());
      EXPECT_EQ(obs::recording_serialize(record_run(rec.options, rec.prov)),
                obs::recording_serialize(rec));
    }
  }
}

TEST(RecorderReplay, IdenticalUnderAsyncScheduler) {
  const obs::Recording rec =
      record_section("4.2.1", "grid", SchedKind::AsyncRandom, 9, 5000);
  const std::vector<std::string> divergences = replay_recording(rec);
  EXPECT_TRUE(divergences.empty()) << (divergences.empty() ? "" : divergences.front());
}

TEST(RecorderReplay, SeedDivergenceIsReported) {
  obs::Recording rec = record_section("4.2.1", "grid", SchedKind::SsyncRandom, 3, 5000);
  rec.prov.seed = 4;  // replay under the wrong seed: must not silently pass
  EXPECT_FALSE(replay_recording(rec).empty());
}

// --- termination diagnosis --------------------------------------------------

TEST(RecorderDiagnosis, LivelockIsDiagnosedCycleWithCertifiedWitness) {
  const Algorithm alg = blinker();
  const obs::Recording rec =
      record_alg(alg, "", "grid", alg.min_rows, alg.min_cols, SchedKind::Fsync, 1, 25);
  ASSERT_EQ(rec.diagnosis, obs::Diagnosis::Cycle);
  ASSERT_TRUE(rec.cycle.has_value());
  EXPECT_EQ(rec.cycle->start, 0);
  EXPECT_EQ(rec.cycle->length, 2);  // G -> W -> G
  std::string why;
  EXPECT_TRUE(certify_cycle(rec, why)) << why;
  // A witness must close within the recorded run: period 1000 divides no
  // recorded instant, and LONG_MAX + 1 is not an instant at all.  Neither
  // replays anything.
  for (const auto& [start, length] : {std::pair{0L, 1000L}, std::pair{LONG_MAX, 1L}}) {
    obs::Recording forged = rec;
    forged.cycle = obs::Recorder::CycleWitness{start, length, rec.cycle->hash};
    EXPECT_FALSE(certify_cycle(forged, why)) << start << "," << length;
    EXPECT_NE(why.find("recorded instants"), std::string::npos) << why;
  }
  // An in-range witness whose placements do not recur: G at 0, W at 1.
  obs::Recording odd = rec;
  odd.cycle = obs::Recorder::CycleWitness{0, 1, rec.cycle->hash};
  EXPECT_FALSE(certify_cycle(odd, why));
  EXPECT_NE(why.find("differ"), std::string::npos) << why;
  // A witness past the end of a run that terminates: 4.2.1 on 4x5 stops
  // after 17 instants, so a recording claiming 27 cannot close (0, 22).
  obs::Recording done = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  ASSERT_EQ(done.instants, 17);
  done.instants = 27;
  done.cycle = obs::Recorder::CycleWitness{0, 22, 0};
  EXPECT_FALSE(certify_cycle(done, why));
  EXPECT_NE(why.find("ended after 17 instants"), std::string::npos) << why;
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
      record_alg(alg, "4.2.1", "grid", 4, 5, SchedKind::Fsync, 1, 100000);
  ASSERT_GT(full.events_seen, 8);
  ASSERT_EQ(static_cast<long long>(full.events.size()), full.events_seen);

  const obs::Recording capped = record_alg(alg, "4.2.1", "grid", 4, 5, SchedKind::Fsync, 1,
                                           100000, /*capacity=*/8);
  EXPECT_EQ(capped.events_seen, full.events_seen);
  ASSERT_EQ(capped.events.size(), 8u);
  // The surviving tail is exactly the newest 8 events, in order.
  const std::vector<obs::RecordedEvent> want(full.events.end() - 8, full.events.end());
  EXPECT_EQ(capped.events, want);

  // A capacity is a bound, never an up-front allocation: a file may name
  // any capacity >= 1, and replay builds its recorder from that number.
  const obs::Recording roomy = record_alg(alg, "4.2.1", "grid", 4, 5, SchedKind::Fsync, 1,
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
  // Tokens holding '%', a space and a newline; an empty one is a bare '%'.
  obs::Recording odd = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 5);
  odd.prov.section = "";
  odd.prov.scheduler = "fs%ync x\ny";
  odd.prov.topo_spec = "gr id\n%";
  odd.failure = "100% bad\nline";
  const std::string text = obs::recording_serialize(odd);
  EXPECT_NE(text.find("\nscheduler fs%25ync%20x%0ay "), std::string::npos) << text;
  EXPECT_EQ(obs::recording_parse(text), odd);
  EXPECT_EQ(obs::recording_serialize(obs::recording_parse(text)), text);
  // Escapes decode in either hex case.
  std::string upper = text;
  upper.replace(upper.find("%0a"), 3, "%0A");
  EXPECT_EQ(obs::recording_parse(upper), odd);
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
  // A path that exists but cannot be read is an error, not an absent file.
  EXPECT_THROW(obs::recording_load(testing::TempDir()), std::runtime_error);
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
      record_alg(alg, "", "grid", alg.min_rows, alg.min_cols, SchedKind::Fsync, 1, 25);
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
  // Dims and coordinates outside int and seeds outside unsigned: narrowed, they replay another run.
  const std::string dims = "dims " + std::to_string(rec.prov.rows) + ' ';
  expect_rejected(swap_line(dims + std::to_string(rec.prov.cols), "dims 4294967297 5"));
  const std::string sched = "scheduler " + rec.prov.scheduler + ' ';
  for (const char* seed : {"99999999999", "-1"}) {
    expect_rejected(swap_line(sched + std::to_string(rec.prov.seed), sched + seed));
  }
  const Robot& first = rec.initial.front();
  const std::string rest = ' ' + std::to_string(first.pos.col) + ' ' + color_letter(first.color);
  expect_rejected(swap_line("robot 0 " + std::to_string(first.pos.row) + rest,
                            "robot 0 4294967296" + rest));
  // Any line after the end marker.
  expect_rejected(good + "end\n");
  expect_rejected(good + "\n");

  // Values no run could produce are refused before they reach arithmetic:
  // a negative budget or stat, more instants than the budget, event
  // instants that decrease or leave [0, max-steps), a rotation outside 0-3,
  // and a witness that does not close within the recorded instants.
  using Edit = void (*)(obs::Recording&);
  const Edit edits[] = {
      [](obs::Recording& r) { r.prov.max_steps = -1; },
      [](obs::Recording& r) { r.activations = -1; },
      [](obs::Recording& r) { r.color_changes = -1; },
      [](obs::Recording& r) { r.events[2].instant = 0; },
      [](obs::Recording& r) { r.events.front().instant = -1; },
      [](obs::Recording& r) { r.events.back().instant = r.prov.max_steps; },
      [](obs::Recording& r) {
        r.events.front().instant = LONG_MIN;
        r.events.back().instant = LONG_MAX;
      },
      [](obs::Recording& r) { r.events.front().sym.rot = 4; },
      [](obs::Recording& r) { r.cycle->start = -1; },
      [](obs::Recording& r) { r.cycle->length = 0; },
      [](obs::Recording& r) { r.cycle->length = 100000000; },
      [](obs::Recording& r) { r.cycle->start = LONG_MAX; },
      [](obs::Recording& r) { r.instants = r.prov.max_steps + 1; },
      // A witness that closes inside its own stats, which claim 10^8
      // instants of a 25-instant budget.
      [](obs::Recording& r) {
        r.cycle = obs::Recorder::CycleWitness{1, 99999998, r.cycle->hash};
        r.instants = 100000000;
      },
  };
  for (const Edit edit : edits) {
    obs::Recording bad = rec;
    edit(bad);
    expect_rejected(obs::recording_serialize(bad));
  }
  // One number rule for every field: no '+' sign.
  const std::string budget = "max-steps " + std::to_string(rec.prov.max_steps);
  expect_rejected(swap_line(budget, "max-steps +" + std::to_string(rec.prov.max_steps)));

  // Framing no recorder writes: more kept events than the ring holds or than
  // were seen, and a witness that disagrees with the diagnosis or with the
  // detector.
  const Edit inconsistent[] = {
      [](obs::Recording& r) { r.options.capacity = 1; },
      [](obs::Recording& r) { r.events_seen = 3; },
      [](obs::Recording& r) { r.diagnosis = obs::Diagnosis::BudgetExhausted; },
      [](obs::Recording& r) { r.cycle.reset(); },
      [](obs::Recording& r) { r.options.detect_cycles = false; },
  };
  for (const Edit edit : inconsistent) {
    obs::Recording bad = rec;
    edit(bad);
    expect_rejected(obs::recording_serialize(bad));
  }
}

TEST(CheckRecording, SelfTest) {
  // The fixture recordings, judged the way run_doctor --verify judges a
  // capture: the format's one reader (recording_parse), then replay.
  const std::string dir = std::string(LUMI_SOURCE_DIR) + "/ci/fixtures/check_recording/";
  for (const char* name : {"good.lumirec", "good_cycle.lumirec"}) {
    const std::optional<obs::Recording> rec = obs::recording_load(dir + name);
    ASSERT_TRUE(rec.has_value()) << name;
    const std::vector<std::string> divergences = replay_recording(*rec);
    EXPECT_TRUE(divergences.empty())
        << name << ": " << (divergences.empty() ? "" : divergences.front());
  }
  // Malformed files fail to parse, naming the line; so does good.lumirec
  // with one more line after its end marker.
  const std::string good = slurp(dir + "good.lumirec");
  const std::string past_end = std::to_string(std::count(good.begin(), good.end(), '\n') + 1);
  const std::pair<std::string, std::string> malformed[] = {
      {slurp(dir + "bad_magic.lumirec"), "line 1: expected 'lumirec ...'"},
      {slurp(dir + "bad_order.lumirec"), "line 6: expected 'dims ...'"},
      {slurp(dir + "bad_event.lumirec"), "line 35: unknown event kind 'teleport'"},
      {slurp(dir + "bad_diagnosis.lumirec"), "line 32: unknown diagnosis 'gremlins'"},
      {slurp(dir + "bad_truncated.lumirec"), "line 21: unexpected end of file"},
      {slurp(dir + "bad_cycle_mismatch.lumirec"),
       "line 24: cycle witness under diagnosis budget-exhausted"},
      {good + "end\n", "line " + past_end + ": content after end marker"},
  };
  for (const auto& [text, want] : malformed) {
    try {
      (void)obs::recording_parse(text);
      ADD_FAILURE() << "accepted, wanted " << want;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
  }
  // A well-formed file whose outcome contradicts its own run diverges on
  // replay.
  const std::optional<obs::Recording> mismatch =
      obs::recording_load(dir + "bad_failure_mismatch.lumirec");
  ASSERT_TRUE(mismatch.has_value());
  const std::vector<std::string> divergences = replay_recording(*mismatch);
  EXPECT_TRUE(std::any_of(divergences.begin(), divergences.end(), [](const std::string& d) {
    return d.starts_with("diagnosis:") || d.starts_with("outcome:");
  }));
}

// --- doctor rendering -------------------------------------------------------

TEST(RecorderDoctor, TimelineAndRuleCountsRender) {
  const obs::Recording rec = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  const std::string timeline = per_robot_timeline(rec);
  EXPECT_NE(timeline.find("robot 0"), std::string::npos);
  const std::string counts = rule_fire_counts(rec);
  EXPECT_FALSE(counts.empty());

  // A rule index far past the table is counted under its number, without
  // sizing anything by it.
  obs::Recording hostile = rec;
  ASSERT_FALSE(hostile.events.empty());
  hostile.events.front().rule_index = 2000000000;
  EXPECT_NE(rule_fire_counts(hostile).find("rule#2000000000: 1\n"), std::string::npos)
      << rule_fire_counts(hostile);
}

TEST(RecorderDoctor, DiffIsEmptyOnIdenticalAndNamesDivergence) {
  const obs::Recording a = record_section("4.2.1", "grid", SchedKind::Fsync, 1, 100000);
  EXPECT_TRUE(diff_recordings(a, a).empty());
  // Each edit shows up as its own line, named by the field and giving both
  // values, A first.
  using Edit = void (*)(obs::Recording&);
  const std::pair<Edit, std::string> edits[] = {
      {[](obs::Recording& r) { r.prov.seed = 99; }, "seed: '1' vs '99'"},
      {[](obs::Recording& r) { r.options.capacity = 8; }, "capacity: '4096' vs '8'"},
      {[](obs::Recording& r) { r.initial.front().pos.col += 1; }, "init robot 0: "},
      {[](obs::Recording& r) { r.cycle = obs::Recorder::CycleWitness{1, 2, 3}; },
       "cycle: 'none' vs '1 2 0000000000000003'"},
      {[](obs::Recording& r) { r.events_seen += 1; }, "events-seen: "},
      {[](obs::Recording& r) { r.events.front().robot += 1; }, "ev 0: "},
      {[](obs::Recording& r) { r.events.front().sym.rot ^= 1; }, "ev 0: "},
      {[](obs::Recording& r) { r.events.front().sym.mirror = !r.events.front().sym.mirror; },
       "ev 0: "},
      {[](obs::Recording& r) { r.final_robots.pop_back(); }, "final: "},
      // A field no line names still counts.
      {[](obs::Recording& r) { r.version = 2; }, "recordings differ in a field not named"},
  };
  for (const auto& [edit, want] : edits) {
    obs::Recording b = a;
    edit(b);
    const std::vector<std::string> diff = diff_recordings(a, b);
    ASSERT_EQ(diff.size(), 1u) << want;
    EXPECT_TRUE(diff.front().starts_with(want)) << diff.front();
  }
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
  EXPECT_TRUE(replay_recording(*rec).empty());
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
