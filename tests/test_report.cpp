// Report-writer correctness: JSON string escaping, RFC-4180 CSV quoting,
// zero-run cell rendering, and byte-identity of rendered reports across
// thread counts (not just accumulator equality).
#include "src/trace/report.hpp"

#include <gtest/gtest.h>

#include "src/core/text.hpp"

namespace lumi {
namespace {

using campaign::CampaignSummary;
using campaign::Cell;
using campaign::CellSummary;
using campaign::SchedKind;

CampaignSummary hostile_summary() {
  // Section name with a quote, comma and backslash — every character class
  // the writers previously passed through unescaped.
  CampaignSummary summary;
  CellSummary cell;
  cell.cell = Cell{"4.2.1 \"hostile\", a\\b", 4, 5, SchedKind::Fsync};
  RunResult run;
  run.terminated = true;
  run.explored_all = true;
  run.visited.assign(20, true);
  cell.acc.add(run);
  summary.cells.push_back(cell);
  summary.total = cell.acc;
  summary.jobs = 1;
  return summary;
}

TEST(ReportEscaping, CsvQuotesHostileSection) {
  const std::string csv = campaign_csv(hostile_summary());
  // The field is quoted, inner quotes are doubled, and the row still has the
  // same number of (unquoted) commas as the header.
  EXPECT_NE(csv.find("\"4.2.1 \"\"hostile\"\", a\\b\","), std::string::npos) << csv;
  const std::size_t header_end = csv.find('\n');
  std::size_t header_commas = 0;
  for (std::size_t i = 0; i < header_end; ++i) header_commas += csv[i] == ',' ? 1 : 0;
  std::size_t row_commas = 0;
  bool quoted = false;
  for (std::size_t i = header_end + 1; i < csv.size(); ++i) {
    if (csv[i] == '"') quoted = !quoted;
    if (csv[i] == ',' && !quoted) row_commas += 1;
  }
  EXPECT_EQ(row_commas, header_commas);
}

TEST(ReportEscaping, JsonEscapesHostileSection) {
  const std::string json = campaign_json(hostile_summary());
  EXPECT_NE(json.find("\"section\": \"4.2.1 \\\"hostile\\\", a\\\\b\""), std::string::npos)
      << json;
}

TEST(ReportEscaping, PrimitivesFollowTheirRfcs) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");

  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field("with,comma"), "\"with,comma\"");
  EXPECT_EQ(csv_field("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(csv_field("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(csv_field("back\\slash"), "back\\slash");  // backslash alone needs no quoting
}

TEST(Report, ZeroRunCellRendersFiniteZeros) {
  CampaignSummary summary;
  CellSummary cell;
  cell.cell = Cell{"4.2.1", 2, 3, SchedKind::Fsync};  // no runs added
  summary.cells.push_back(cell);

  const std::string csv = campaign_csv(summary);
  EXPECT_NE(csv.find("4.2.1,2,3,grid,fsync,0,0,0,0,0,0,0,0,0"), std::string::npos) << csv;
  const std::string json = campaign_json(summary);
  EXPECT_NE(json.find("\"termination_rate\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 0"), std::string::npos);
  for (const std::string& bad : {std::string("nan"), std::string("inf")}) {
    EXPECT_EQ(csv.find(bad), std::string::npos);
    EXPECT_EQ(json.find(bad), std::string::npos);
  }
}

TEST(Report, SingleRunCellRendersExactValuesWithoutNaN) {
  // Deterministic-scheduler cells aggregate exactly one run (n = 1): the
  // variance path degenerates and the percentile rank is 1.  The rendered
  // report must carry the sample itself — no NaN, no bucket-top artifacts
  // beyond the documented clamp.
  CampaignSummary summary;
  CellSummary cell;
  cell.cell = Cell{"4.2.1", 4, 5, SchedKind::SsyncRoundRobin};
  RunResult run;
  run.terminated = true;
  run.explored_all = true;
  run.stats.instants = 1'000'000;  // large enough to stress the exact-sums math
  run.stats.moves = 37;
  run.visited.assign(20, true);
  cell.acc.add(run);
  summary.cells.push_back(cell);
  summary.total = cell.acc;
  summary.jobs = 1;

  EXPECT_DOUBLE_EQ(cell.acc.instants.variance(), 0.0);
  const std::string csv = campaign_csv(summary);
  const std::string json = campaign_json(summary);
  // p50/p90/p99 of a single sample are the sample, in both writers, and the
  // trailing 95% CI half-widths are exactly zero for n = 1.
  EXPECT_NE(csv.find(",1000000,1000000,1000000,37,37,37,0,0\n"), std::string::npos) << csv;
  EXPECT_NE(json.find("\"p50\": 1000000, \"p90\": 1000000, \"p99\": 1000000"),
            std::string::npos)
      << json;
  for (const std::string& bad : {std::string("nan"), std::string("inf")}) {
    EXPECT_EQ(csv.find(bad), std::string::npos);
    EXPECT_EQ(json.find(bad), std::string::npos);
  }
}

TEST(Report, RenderedReportsAreByteIdenticalAcrossThreadCounts) {
  campaign::Matrix matrix;
  matrix.sections = {"4.2.1", "4.3.1", "4.3.5"};
  matrix.rows = {4, 6, 2};
  matrix.cols = {4, 6, 2};
  matrix.schedulers = {SchedKind::Fsync, SchedKind::SsyncRandom, SchedKind::AsyncRandom};
  matrix.seeds = {7, 8};
  const campaign::Expansion expansion = campaign::expand(matrix);

  // Execution-environment fields (threads, wall time) are deliberately not
  // serialized, so the rendered bytes must match outright.
  const CampaignSummary one = campaign::run_campaign(expansion, 1);
  const CampaignSummary four = campaign::run_campaign(expansion, 4);
  EXPECT_EQ(campaign_csv(one), campaign_csv(four));
  EXPECT_EQ(campaign_json(one), campaign_json(four));
}

}  // namespace
}  // namespace lumi
