// Rule-table lint: runs the semantic analyzer (src/analysis/rule_analysis.hpp)
// over algorithms and reports every finding, with matcher-certified witnesses
// for determinism defects.
//
//   $ ./algo_lint                       # all Table 1 entries; exit 0 iff zero findings
//   $ ./algo_lint --json=lint.json      # same, plus a machine-readable report
//   $ ./algo_lint --file=my_algo.lumi   # lint one DSL file (broken tables load:
//                                       # the analyzer reports what is wrong)
//   $ ./algo_lint --self-test --fixtures=tests/fixtures/algo_lint
//
// The self-test walks a fixture directory of .lumi files whose `# expect:`
// header names the defect classes the analyzer must (exactly) report —
// "clean" for none.  CI runs both modes: the registry pinned at zero
// findings, and every seeded defect fixture firing its class.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/algorithms/registry.hpp"
#include "src/analysis/rule_analysis.hpp"
#include "src/core/text.hpp"
#include "src/dsl/dsl.hpp"

namespace {

using namespace lumi;

struct LintedAlgorithm {
  std::string name;
  std::string section;  ///< "" for files
  analysis::AnalysisReport report;
};

void print_report(const LintedAlgorithm& linted) {
  const std::size_t n = linted.report.findings.size();
  std::printf("%-32s %s\n", linted.name.c_str(),
              n == 0 ? "clean" : (std::to_string(n) + " finding(s)").c_str());
  for (const analysis::Finding& f : linted.report.findings) {
    std::printf("  %s\n", f.to_string().c_str());
  }
}

std::string report_json(const std::vector<LintedAlgorithm>& linted) {
  std::string out = "{\n  \"algorithms\": [\n";
  for (std::size_t i = 0; i < linted.size(); ++i) {
    const LintedAlgorithm& a = linted[i];
    out += "    {\"name\": \"";
    out += json_escape(a.name);
    out += "\", \"section\": \"";
    out += json_escape(a.section);
    out += "\", \"findings\": [";
    for (std::size_t j = 0; j < a.report.findings.size(); ++j) {
      const analysis::Finding& f = a.report.findings[j];
      out += j == 0 ? "\n" : ",\n";
      out += "      {\"class\": \"";
      out += analysis::to_string(f.cls);
      out += "\", \"severity\": \"";
      out += analysis::to_string(f.severity);
      out += "\", \"rule\": \"";
      out += json_escape(f.rule);
      out += "\", \"other_rule\": \"";
      out += json_escape(f.other_rule);
      out += "\", \"certified\": ";
      out += f.certified ? "true" : "false";
      out += ", \"message\": \"";
      out += json_escape(f.message);
      if (f.witness.has_value()) {
        out += "\", \"witness\": \"";
        out += json_escape(f.witness->to_string());
      }
      out += "\"}";
    }
    out += a.report.findings.empty() ? "]}" : "\n    ]}";
    out += i + 1 < linted.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"total_findings\": ";
  std::size_t total = 0;
  for (const LintedAlgorithm& a : linted) total += a.report.findings.size();
  out += std::to_string(total);
  out += "\n}\n";
  return out;
}

/// Defect slugs from a fixture's `# expect: a b c` header (first match wins);
/// {"clean"} means the analyzer must report nothing.
std::set<std::string> expected_classes(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string prefix = "# expect:";
    if (!line.starts_with(prefix)) continue;
    std::istringstream rest(line.substr(prefix.size()));
    std::set<std::string> out;
    std::string slug;
    while (rest >> slug) out.insert(slug);
    return out;
  }
  return {};
}

/// Walks DIR/*.lumi (sorted), analyzes each unvalidated, and demands
/// the reported defect-class set equals the `# expect:` header exactly —
/// both directions: a seeded defect must fire, and no foreign class may.
/// Conflict/ambiguous-move findings must additionally carry a
/// matcher-certified witness that independently re-certifies.
int run_self_test(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".lumi") files.push_back(entry.path());
  }
  if (ec || files.empty()) {
    std::fprintf(stderr, "self-test: no .lumi fixtures under '%s'\n", dir.c_str());
    return 2;
  }
  std::sort(files.begin(), files.end());
  int failures = 0;
  for (const auto& path : files) {
    const std::optional<std::string> text = read_file(path.string());
    if (!text) {
      std::fprintf(stderr, "self-test: cannot read %s\n", path.c_str());
      failures += 1;
      continue;
    }
    const std::set<std::string> expect = expected_classes(*text);
    if (expect.empty()) {
      std::fprintf(stderr, "%s: FAIL (missing '# expect:' header)\n", path.c_str());
      failures += 1;
      continue;
    }
    analysis::AnalysisReport report;
    Algorithm alg;
    try {
      alg = dsl::parse(*text);
      report = analysis::analyze(alg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: FAIL (%s)\n", path.c_str(), e.what());
      failures += 1;
      continue;
    }
    std::set<std::string> got;
    for (const analysis::Finding& f : report.findings) got.insert(analysis::to_string(f.cls));
    if (got.empty()) got.insert("clean");
    bool ok = got == expect;
    for (const analysis::Finding& f : report.findings) {
      const bool needs_witness = f.cls == analysis::DefectClass::DeterminismConflict ||
                                 f.cls == analysis::DefectClass::SymmetryAmbiguousMove;
      if (needs_witness && !(f.certified && analysis::certify_conflict(alg, f))) {
        std::fprintf(stderr, "%s: uncertified witness: %s\n", path.c_str(),
                     f.to_string().c_str());
        ok = false;
      }
    }
    if (ok) {
      std::printf("%s: ok\n", path.filename().c_str());
    } else {
      std::string got_text;
      for (const std::string& slug : got) {
        if (!got_text.empty()) got_text += ' ';
        got_text += slug;
      }
      std::fprintf(stderr, "%s: FAIL (expected {%s}, analyzer reported {%s})\n", path.c_str(),
                   [&] {
                     std::string e;
                     for (const std::string& slug : expect) {
                       if (!e.empty()) e += ' ';
                       e += slug;
                     }
                     return e;
                   }()
                       .c_str(),
                   got_text.c_str());
      for (const analysis::Finding& f : report.findings) {
        std::fprintf(stderr, "  %s\n", f.to_string().c_str());
      }
      failures += 1;
    }
  }
  std::printf("self-test: %zu fixtures, %d failure(s)\n", files.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string file_path;
  std::string fixtures_dir;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return arg.compare(0, len, key) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--json=")) {
      json_path = v;
    } else if (const char* v = value("--file=")) {
      file_path = v;
    } else if (const char* v = value("--fixtures=")) {
      fixtures_dir = v;
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      std::fprintf(stderr,
                   "unknown option '%s'\n"
                   "usage: %s [--json=PATH] [--file=PATH.lumi]\n"
                   "       %s --self-test --fixtures=DIR\n",
                   arg.c_str(), argv[0], argv[0]);
      return 2;
    }
  }

  if (self_test && fixtures_dir.empty()) {
    std::fprintf(stderr, "--self-test needs --fixtures=DIR\n");
    return 2;
  }

  std::vector<LintedAlgorithm> linted;
  try {
    if (self_test) return run_self_test(fixtures_dir);
    if (!file_path.empty()) {
      const std::optional<std::string> text = read_file(file_path);
      if (!text) {
        std::fprintf(stderr, "cannot read %s\n", file_path.c_str());
        return 2;
      }
      const Algorithm alg = dsl::parse(*text);
      linted.push_back({alg.name, "", analysis::analyze(alg)});
    } else {
      for (const algorithms::TableEntry& e : algorithms::table1()) {
        const Algorithm alg = e.make();
        linted.push_back({alg.name, e.section, analysis::analyze(alg)});
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lint failed: %s\n", e.what());
    return 2;
  }

  std::size_t total = 0;
  for (const LintedAlgorithm& a : linted) {
    print_report(a);
    total += a.report.findings.size();
  }
  std::printf("algo_lint: %zu algorithm(s), %zu finding(s)\n", linted.size(), total);

  if (!json_path.empty() && !write_file_atomic(json_path, report_json(linted))) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 2;
  }
  // The registry pin: any finding at all — warning included — fails the run.
  return total == 0 ? 0 : 1;
}
