#include "src/dsl/dsl.hpp"

#include <gtest/gtest.h>

#include "src/algorithms/algorithms.hpp"
#include "src/algorithms/registry.hpp"
#include "src/analysis/verifier.hpp"

namespace lumi {
namespace {

TEST(Dsl, RoundTripsEveryBuiltinAlgorithm) {
  Algorithm (*factories[])() = {
      algorithms::algorithm1,  algorithms::algorithm2,  algorithms::algorithm3,
      algorithms::algorithm4,  algorithms::algorithm5,  algorithms::algorithm6,
      algorithms::algorithm7,  algorithms::algorithm8,  algorithms::algorithm9,
      algorithms::algorithm10, algorithms::algorithm11, algorithms::derived423,
      algorithms::derived424,  algorithms::derived428,
  };
  for (auto factory : factories) {
    const Algorithm original = factory();
    const std::string text = dsl::serialize(original);
    const Algorithm parsed = dsl::parse(text);
    EXPECT_EQ(parsed.name, original.name);
    EXPECT_EQ(parsed.phi, original.phi);
    EXPECT_EQ(parsed.num_colors, original.num_colors);
    EXPECT_EQ(parsed.chirality, original.chirality);
    EXPECT_EQ(parsed.model, original.model);
    EXPECT_EQ(parsed.initial_robots, original.initial_robots);
    ASSERT_EQ(parsed.rules.size(), original.rules.size()) << original.name;
    for (std::size_t i = 0; i < parsed.rules.size(); ++i) {
      const Rule& a = parsed.rules[i];
      const Rule& b = original.rules[i];
      EXPECT_EQ(a.label, b.label);
      EXPECT_EQ(a.self, b.self);
      EXPECT_EQ(a.new_color, b.new_color);
      EXPECT_EQ(a.move, b.move);
      // Same effective pattern on every kernel cell.
      for (Vec o : ViewKernel::get(original.phi).offsets()) {
        EXPECT_EQ(a.pattern_at(o), b.pattern_at(o))
            << original.name << "/" << b.label << " cell " << offset_name(o);
      }
    }
    // Double round-trip is a fixed point.
    EXPECT_EQ(dsl::serialize(parsed), text);
  }
}

TEST(Dsl, ParsedAlgorithmStillExplores) {
  const Algorithm parsed = dsl::parse(dsl::serialize(algorithms::algorithm1()));
  SweepOptions opts;
  opts.max_rows = 4;
  opts.max_cols = 5;
  EXPECT_TRUE(verify_sweep(parsed, opts).ok());
}

TEST(Dsl, ParsesHandWrittenText) {
  const std::string text = R"(# a tiny two-robot pair
algorithm doc-example
model fsync
phi 1
colors 2
chirality common
min-grid 2 3
init (0,0)=G (0,1)=W
rule R1 self=W W={G} E=empty -> W,E
rule R2 self=G E={W} -> G,E
)";
  const Algorithm alg = dsl::parse(text);
  EXPECT_EQ(alg.name, "doc-example");
  EXPECT_EQ(alg.rules.size(), 2u);
  EXPECT_EQ(alg.rules[0].self, Color::W);
  EXPECT_EQ(alg.rules[0].pattern_at({0, -1}), CellPattern::exactly(ColorMultiset{Color::G}));
  EXPECT_EQ(alg.rules[0].pattern_at({0, 1}), CellPattern::empty());
  EXPECT_EQ(alg.rules[0].pattern_at({-1, 0}), CellPattern::gray());
  EXPECT_EQ(alg.rules[1].move, Dir::East);
}

TEST(Dsl, ErrorsCarryLineNumbers) {
  EXPECT_THROW(dsl::parse("algorithm x\nbogus declaration\n"), std::invalid_argument);
  try {
    dsl::parse("algorithm x\nmodel fsync\nrule R1 self=Q -> G,E\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Dsl, RejectsMalformedRules) {
  const std::string prefix = "algorithm x\nmodel fsync\nphi 1\ncolors 2\nchirality common\n"
                             "min-grid 2 3\ninit (0,0)=G\n";
  EXPECT_THROW(dsl::parse(prefix + "rule R1 self=G -> G\n"), std::invalid_argument);
  EXPECT_THROW(dsl::parse(prefix + "rule R1 self=G XX={G} -> G,E\n"), std::invalid_argument);
  EXPECT_THROW(dsl::parse(prefix + "rule R1 self=G E={} -> G,E\n"), std::invalid_argument);
  EXPECT_THROW(dsl::parse(prefix + "rule R1 self=G E={G} -> G,Q\n"), std::invalid_argument);
  EXPECT_THROW(dsl::parse(prefix + "rule R1 self=G C=empty -> G,Idle\n"),
               std::invalid_argument);
}

TEST(Dsl, MissingNameRejected) {
  EXPECT_THROW(dsl::parse("model fsync\n"), std::invalid_argument);
}

TEST(Dsl, RegistryRoundTripIsIdentity) {
  // serialize -> parse -> serialize is a fixed point for every Table 1 entry,
  // through the registry (not the raw factory list) so a new row is covered
  // the day it is registered.
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm original = e.make();
    const std::string text = dsl::serialize(original);
    const Algorithm parsed = dsl::parse(text);
    EXPECT_EQ(dsl::serialize(parsed), text) << e.section;
  }
}

TEST(Dsl, AcceptsCrlfAndTrailingWhitespace) {
  const std::string unix_text = dsl::serialize(algorithms::algorithm1());
  // Re-author the same file with CRLF endings and trailing spaces/tabs.
  std::string dirty;
  for (char c : unix_text) {
    if (c == '\n') {
      dirty += " \t\r\n";
    } else {
      dirty += c;
    }
  }
  const Algorithm parsed = dsl::parse(dirty);
  EXPECT_EQ(dsl::serialize(parsed), unix_text);
}

TEST(Dsl, MalformedIntegersQuoteTheToken) {
  const auto expect_quoted = [](const std::string& text, const std::string& token) {
    try {
      dsl::parse(text);
      FAIL() << "expected parse error for token " << token;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + token + "'"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos) << e.what();
    }
  };
  expect_quoted("algorithm x\nphi two\n", "two");
  expect_quoted("algorithm x\nphi 2x\n", "2x");    // stoi alone would accept this
  expect_quoted("algorithm x\ncolors many\n", "many");
  expect_quoted("algorithm x\nmin-grid 2 wide\n", "wide");
  expect_quoted("algorithm x\ninit (0x,0)=G\n", "0x");
  expect_quoted("algorithm x\ninit (0,0,7)=G\n", "(0,0,7)");
}

TEST(Dsl, ValidateOffLoadsDefectiveTables) {
  // A movement into an unpinned cell fails Algorithm::validate(); with
  // validation off the table still loads — that is what lets the analyzer's
  // defect fixtures be analyzed at all.
  const std::string text = "algorithm broken\nphi 1\ncolors 1\ninit (0,0)=G\n"
                           "rule R1 self=G -> G,N\n";
  EXPECT_THROW(dsl::parse(text), std::invalid_argument);
  const Algorithm alg = dsl::parse(text, dsl::ParseOptions{.validate = false});
  EXPECT_EQ(alg.rules.size(), 1u);
}

TEST(Dsl, StrictModeRunsTheAnalyzer) {
  // Well-formed under validate(), but semantically conflicting: two rules
  // enabled on the same view with different actions.  Plain parse accepts;
  // strict parse rejects with the analyzer's findings.
  const std::string conflicting =
      "algorithm strict-conflict\nphi 1\ncolors 1\nmin-grid 3 3\ninit (1,0)=G\n"
      "rule R1 self=G N=empty E=empty S=empty W=wall -> G,N\n"
      "rule R2 self=G N=empty E=empty -> G,E\n";
  EXPECT_NO_THROW(dsl::parse(conflicting));
  try {
    dsl::parse(conflicting, dsl::ParseOptions{.strict = true});
    FAIL() << "expected strict parse to reject the conflicting table";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos) << e.what();
  }
  // Every registry algorithm survives strict parsing of its own serialization.
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    EXPECT_NO_THROW(
        dsl::parse(dsl::serialize(e.make()), dsl::ParseOptions{.strict = true}))
        << e.section;
  }
}

}  // namespace
}  // namespace lumi
