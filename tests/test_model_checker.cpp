// Exhaustive model checking of the Table-1 algorithms on small grids: every
// schedule the respective model admits must terminate fully explored.
#include "src/analysis/model_checker.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/algorithms/registry.hpp"

namespace lumi {
namespace {

constexpr int kMaxSide = 12;  ///< exhaustive tests cover every grid up to 12x12

const char* model_name(CheckModel model) {
  switch (model) {
    case CheckModel::Fsync: return "FSYNC";
    case CheckModel::Ssync: return "SSYNC";
    case CheckModel::Async: return "ASYNC";
  }
  return "?";
}

/// True when the entry's Table-1 model admits every schedule of `model`
/// (Synchrony is declared in weakness order Fsync < Ssync < Async).
bool claims(const algorithms::TableEntry& e, CheckModel model) {
  return static_cast<int>(model) <= static_cast<int>(e.synchrony);
}

/// Checks every entry claiming `model` on every grid from the entry's
/// minimum up to kMaxSide x kMaxSide.
void expect_claims_hold(CheckModel model) {
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    if (!claims(e, model)) continue;
    const Algorithm alg = e.make();
    for (int rows = alg.min_rows; rows <= kMaxSide; ++rows) {
      for (int cols = alg.min_cols; cols <= kMaxSide; ++cols) {
        const CheckResult r = model_check(alg, Grid(rows, cols), model);
        EXPECT_TRUE(r.ok) << e.section << " " << model_name(model) << " on " << rows << "x"
                          << cols << ": " << r.to_string();
      }
    }
  }
}

/// Two robots endlessly swapping places.
Algorithm pingpong() {
  Algorithm alg;
  alg.name = "pingpong";
  alg.model = Synchrony::Fsync;
  alg.phi = 1;
  alg.num_colors = 2;
  alg.chirality = Chirality::Common;
  alg.min_rows = 2;
  alg.min_cols = 3;
  alg.initial_robots = {{{0, 0}, Color::G}, {{0, 1}, Color::W}};
  alg.rules.push_back(RuleBuilder("R1", Color::G).cell("E", {Color::W}).moves(Dir::East).build());
  alg.rules.push_back(RuleBuilder("R2", Color::W).cell("W", {Color::G}).moves(Dir::West).build());
  alg.validate();
  return alg;
}

/// "checks failures digest" over `results`: the digest is the FNV-1a-64 of
/// every CheckResult::to_string(), each followed by '\n'.
std::string digest_of(const std::vector<CheckResult>& results) {
  std::uint64_t h = 1469598103934665603ULL;
  long failures = 0;
  for (const CheckResult& r : results) {
    for (const char c : r.to_string() + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    failures += r.ok ? 0 : 1;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return std::to_string(results.size()) + " " + std::to_string(failures) + " " + hex;
}

TEST(ModelChecker, FsyncAlgorithmsExhaustive) { expect_claims_hold(CheckModel::Fsync); }

TEST(ModelChecker, AsyncAlgorithmsExhaustiveUnderSsync) { expect_claims_hold(CheckModel::Ssync); }

TEST(ModelChecker, AsyncAlgorithmsExhaustiveUnderAsync) {
  // 4.3.6 claims SSYNC only; PAPER.md "Reproduction gaps" has its ASYNC
  // counterexample.
  expect_claims_hold(CheckModel::Async);
}

TEST(ModelChecker, DetectsIncompleteCoverage) {
  // A do-nothing algorithm terminates immediately without exploring.
  Algorithm idle;
  idle.name = "idle";
  idle.model = Synchrony::Fsync;
  idle.phi = 1;
  idle.num_colors = 1;
  idle.chirality = Chirality::Common;
  idle.min_rows = 2;
  idle.min_cols = 3;
  idle.initial_robots = {{{0, 0}, Color::G}};
  idle.validate();
  const CheckResult r = model_check(idle, Grid(2, 3), CheckModel::Fsync);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("incomplete coverage"), std::string::npos) << r.failure;

  // The 4.3.6 reconstruction under ASYNC: a stale-snapshot interleaving
  // strands the trains on 3x3 (the counterexample PAPER.md quotes).
  const CheckResult gap =
      model_check(algorithms::entry("4.3.6").make(), Grid(3, 3), CheckModel::Async);
  EXPECT_FALSE(gap.ok);
  EXPECT_EQ(gap.failure, "terminal configuration with incomplete coverage (6/9 nodes)");
  EXPECT_EQ(gap.states, 19);
  EXPECT_FALSE(gap.witness.empty());
}

TEST(ModelChecker, DetectsNonTermination) {
  // Two robots endlessly swapping: cycle detection must fire.
  const CheckResult r = model_check(pingpong(), Grid(2, 3), CheckModel::Fsync);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("cycle"), std::string::npos) << r.failure;
}

TEST(ModelChecker, CountsStatesAndTransitions) {
  const Algorithm alg = algorithms::entry("4.2.1").make();
  const CheckResult r = model_check(alg, Grid(2, 3), CheckModel::Fsync);
  ASSERT_TRUE(r.ok) << r.to_string();
  EXPECT_GE(r.states, 5);
  EXPECT_GE(r.transitions, r.states - 1);
  EXPECT_GE(r.terminal_states, 1);
}

TEST(ModelChecker, ResultsMatchParentDigests) {
  // Pins every result, witnesses included, to the digests recorded from the
  // string-keyed checker this one replaced.  Only failing checks carry
  // witnesses, so this is the test that pins witness order.
  const CheckModel models[] = {CheckModel::Fsync, CheckModel::Ssync, CheckModel::Async};
  std::map<std::string, std::string> actual;
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    for (const CheckModel model : models) {
      std::vector<CheckResult> results;
      for (int rows = alg.min_rows; rows * alg.min_cols <= 64; ++rows) {
        for (int cols = alg.min_cols; rows * cols <= 64; ++cols) {
          results.push_back(model_check(alg, Grid(rows, cols), model));
        }
      }
      actual[e.section + "/" + model_name(model)] = digest_of(results);
    }
  }
  for (const CheckModel model : models) {
    actual[std::string("pingpong-2x3/") + model_name(model)] =
        digest_of({model_check(pingpong(), Grid(2, 3), model)});
  }
  actual["4.3.1-3x4-max10/ASYNC"] = digest_of({model_check(
      algorithms::entry("4.3.1").make(), Grid(3, 4), CheckModel::Async, {.max_states = 10})});

  std::ifstream in(std::string(LUMI_SOURCE_DIR) +
                   "/tests/fixtures/model_checker/parent_digests.txt");
  ASSERT_TRUE(in) << "missing tests/fixtures/model_checker/parent_digests.txt";
  std::map<std::string, std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label, checks, failures, digest;
    fields >> label >> checks >> failures >> digest;
    expected[label] = checks + " " + failures + " " + digest;
  }
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& [label, want] : expected) {
    EXPECT_EQ(actual[label], want) << label;
  }
}

}  // namespace
}  // namespace lumi
