// Deterministic mutation fuzzing of the text parsers: checkpoints, `.lumirec`
// recordings, the DSL, topology specs, ranges and shard specs.  A fixed
// corpus is mutated from one fixed rng::Engine seed under a fixed budget, so
// every run tries the same inputs.  A mutation flips, inserts or deletes a
// byte, duplicates or deletes a line, or replaces a digit run with a
// boundary value; each mutant stacks one to three of them.  The contract on
// every input:
//  - checkpoint_parse and recording_parse return or throw
//    std::runtime_error.  What they accept re-serializes to text that parses
//    back equal, and goes through the readers downstream of it: checkpoint
//    summaries and both reports, which may throw std::overflow_error, and
//    recording timelines and rule counts, which may throw the embedded DSL
//    text's std::invalid_argument;
//  - dsl::parse returns or throws std::invalid_argument;
//  - make_topology returns or throws std::invalid_argument, or the obstacle
//    generator's std::runtime_error;
//  - range_from_string and shard_from_string return, and an accepted shard
//    spec prints back to itself.
// Any other exception, a crash or a sanitizer report fails the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/campaign/checkpoint.hpp"
#include "src/campaign/doctor.hpp"
#include "src/campaign/orchestrate.hpp"
#include "src/campaign/shard.hpp"
#include "src/core/rng.hpp"
#include "src/core/text.hpp"
#include "src/dsl/dsl.hpp"
#include "src/obs/recorder.hpp"
#include "src/topo/topology.hpp"
#include "src/trace/report.hpp"

#ifndef LUMI_SOURCE_DIR
#define LUMI_SOURCE_DIR "."
#endif

namespace lumi::campaign {
namespace {

constexpr unsigned kSeed = 20210517;
constexpr int kMutantsPerText = 1500;

std::string mutate(std::string text, rng::Engine& rng) {
  static const char* const kDigitRuns[] = {"-1", "0", "2147483648", "9223372036854775807",
                                           "18446744073709551616"};
  const auto pick = [&rng](std::size_t n) {
    return bounded_draw(rng, static_cast<std::uint32_t>(n));
  };
  const std::uint32_t kind = pick(6);
  switch (kind) {
    case 0:  // flip one bit of a byte
      if (!text.empty()) text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:  // insert a byte
      text.insert(text.begin() + pick(text.size() + 1), static_cast<char>(pick(256)));
      break;
    case 2:  // delete a byte
      if (!text.empty()) text.erase(pick(text.size()), 1);
      break;
    case 3:    // duplicate a line
    case 4: {  // delete a line
      if (text.empty()) break;
      std::vector<std::size_t> starts = {0};
      for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] == '\n') starts.push_back(i + 1);
      }
      const std::size_t at = starts[pick(starts.size())];
      const std::size_t newline = text.find('\n', at);
      const std::size_t n = (newline == std::string::npos ? text.size() : newline + 1) - at;
      if (kind == 3) {
        text.insert(at, text.substr(at, n));
      } else {
        text.erase(at, n);
      }
      break;
    }
    default: {  // replace a digit run with a boundary value
      std::vector<std::pair<std::size_t, std::size_t>> runs;
      for (std::size_t i = 0; i < text.size();) {
        std::size_t j = i;
        while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
        if (j > i) runs.emplace_back(i, j - i);
        i = j + 1;
      }
      if (runs.empty()) break;
      const auto [at, n] = runs[pick(runs.size())];
      text.replace(at, n, kDigitRuns[pick(std::size(kDigitRuns))]);
    }
  }
  return text;
}

/// Feeds every corpus text and kMutantsPerText mutants of each to `check`,
/// which returns whether the parser accepted the input and lets escape only
/// what breaks the contract.  Returns how many inputs were accepted.
template <class Check>
int fuzz(const std::vector<std::string>& corpus, Check check) {
  rng::Engine rng(kSeed);
  int accepted = 0;
  for (const std::string& seed : corpus) {
    for (int i = 0; i <= kMutantsPerText; ++i) {
      std::string text = seed;
      for (int m = 0, n = i == 0 ? 0 : 1 + static_cast<int>(bounded_draw(rng, 3)); m < n; ++m) {
        text = mutate(std::move(text), rng);
      }
      try {
        accepted += check(text) ? 1 : 0;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "escaped: " << e.what() << "\ninput:\n" << text;
        return accepted;
      }
    }
  }
  return accepted;
}

std::vector<std::string> files_in(const std::string& dir, const std::string& extension) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == extension) out.push_back(*read_file(entry.path().string()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ParserFuzz, Checkpoint) {
  Matrix m;
  m.sections = {"4.2.1"};
  m.rows = {4, 4, 1};
  m.cols = {4, 5, 1};
  m.schedulers = {SchedKind::Fsync, SchedKind::SsyncRandom};
  m.seeds = {1, 2};
  Checkpoint ran = run_orchestrated(expand(m), {}).checkpoint;
  ran.cells.front().cell.section = "4.2.1 100%";  // a token with escapes
  const int accepted = fuzz({checkpoint_serialize(ran)}, [](const std::string& text) {
    Checkpoint ck;
    try {
      ck = checkpoint_parse(text);
    } catch (const std::runtime_error&) {
      return false;
    }
    EXPECT_EQ(checkpoint_parse(checkpoint_serialize(ck)), ck);
    try {
      const CampaignSummary summary = checkpoint_summary(ck);
      EXPECT_FALSE(campaign_csv(summary).empty());
      EXPECT_FALSE(campaign_json(summary).empty());
    } catch (const std::overflow_error&) {
    }
    return true;
  });
  EXPECT_GT(accepted, 1);
}

TEST(ParserFuzz, Recording) {
  const std::vector<std::string> corpus =
      files_in(std::string(LUMI_SOURCE_DIR) + "/ci/fixtures/check_recording", ".lumirec");
  ASSERT_FALSE(corpus.empty());
  const int accepted = fuzz(corpus, [](const std::string& text) {
    obs::Recording rec;
    try {
      rec = obs::recording_parse(text);
    } catch (const std::runtime_error&) {
      return false;
    }
    EXPECT_EQ(obs::recording_parse(obs::recording_serialize(rec)), rec);
    EXPECT_FALSE(per_robot_timeline(rec).empty());
    try {
      EXPECT_FALSE(rule_fire_counts(rec).empty());
    } catch (const std::invalid_argument&) {
    }
    return true;
  });
  EXPECT_GT(accepted, static_cast<int>(corpus.size()));
}

TEST(ParserFuzz, Dsl) {
  std::vector<std::string> corpus =
      files_in(std::string(LUMI_SOURCE_DIR) + "/tests/fixtures/algo_lint", ".lumi");
  corpus.push_back(
      *read_file(std::string(LUMI_SOURCE_DIR) + "/tests/fixtures/recordings/blinker.lumi"));
  const int accepted = fuzz(corpus, [](const std::string& text) {
    bool ok = false;
    try {
      const Algorithm alg = dsl::parse(text);
      ok = true;
      alg.validate();
    } catch (const std::invalid_argument&) {
    }
    return ok;
  });
  EXPECT_GT(accepted, static_cast<int>(corpus.size()));
}

TEST(ParserFuzz, Specs) {
  const int topologies = fuzz(
      {"grid", "ring", "torus", "holes", "holes:2x3@1x2", "obstacles:15:7", "", "gridd",
       "obstacles", "obstacles:abc:1", "obstacles:15", "holes:2", "holes:2x", "holes:2x3@9",
       "torus:1"},
      [](const std::string& spec) {
        try {
          (void)make_topology(spec, 6, 7);
          return true;
        } catch (const std::invalid_argument&) {
        } catch (const std::runtime_error&) {
        }
        return false;
      });
  EXPECT_GT(topologies, 6);
  const int ranges = fuzz({"8", "4..64", "4..64:12", "6..4", "", "x", "0", "-4", "4..", "..8",
                           "4..y", "4..8:", "4..8:x", "1e3", "4..8:2:3", "99999999999",
                           "4..99999999999"},
                          [](const std::string& text) {
                            return range_from_string(text).has_value();
                          });
  EXPECT_GT(ranges, 4);
  const int shards = fuzz({"2/7", "", "3", "/3", "2/", "3/3", "4/3", "a/b", "1/2/3", "-1/3",
                           "4294967296/4294967297", "4294967297/4294967298"},
                          [](const std::string& text) {
                            const std::optional<ShardSpec> spec = shard_from_string(text);
                            if (spec) {
                              EXPECT_EQ(shard_from_string(to_string(*spec)), spec);
                            }
                            return spec.has_value();
                          });
  EXPECT_GT(shards, 1);
}

}  // namespace
}  // namespace lumi::campaign
