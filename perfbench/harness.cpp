// The repository benchmark's measuring process.
//
//   lumi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--toy] [--setup-only]
//
// --trace 0 measures the end-to-end metrics with the metrics registry off;
// --trace 1 is the separate traced run that prints the per-layer metrics
// (layers.cpp).  --setup-only builds the workload in a fresh process and
// prints only its set-up time (perfbench/run.py takes the median of
// several).  The last stdout line is one JSON object: correct, attempted,
// failed and metrics.  Exit code 0 iff every unit and output check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.hpp"

namespace {

using namespace perfbench;

/// Every end-to-end leg runs at least this many times, however short
/// --seconds is, so each median has three samples.
constexpr int kMinRounds = 3;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Alternates the workload's end-to-end pass on all workers and on one
/// worker until `seconds` are spent; every pass must reproduce the first
/// pass's report byte for byte.
std::vector<Metric> end_to_end(const Workload& w, unsigned threads, double seconds,
                               double setup_s, Tally& tally) {
  const bool certify = w.driver == Driver::Certify;
  std::vector<double> rate_all;
  std::vector<double> rate_one;
  std::string reference;
  const Clock::time_point t0 = Clock::now();
  double round_s = 0.0;
  for (int round = 0; round < kMinRounds || seconds_since(t0) + round_s <= seconds; ++round) {
    const Clock::time_point r0 = Clock::now();
    // Certification is single-threaded; campaign legs swap order each round
    // so slow drifts of the machine hit both alike.
    std::vector<std::pair<unsigned, std::vector<double>*>> legs = {{threads, &rate_all},
                                                                    {1, &rate_one}};
    if (certify) legs = {{1, &rate_one}};
    if (round % 2 == 1) std::swap(legs.front(), legs.back());
    for (const auto& [t, rates] : legs) {
      PassResult p = run_pass(w, t);
      rates->push_back(static_cast<double>(p.units) / p.wall_s);
      if (reference.empty()) {
        reference = p.report;
      } else {
        ++p.checks;
        if (p.report != reference) {
          p.check_failures.push_back("report differs from the first pass's");
        }
      }
      tally.add(p, std::to_string(t) + "-thread pass " + std::to_string(round));
    }
    round_s = seconds_since(r0);
  }
  if (certify) {
    rate_all = rate_one;
    std::printf("passes: %zu single-threaded, %.1f s\n", rate_one.size(), seconds_since(t0));
  } else {
    std::printf("passes: %zu on %u threads, %zu on 1 thread, %.1f s\n", rate_all.size(),
                threads, rate_one.size(), seconds_since(t0));
  }
  const auto print_rates = [](const char* label, const std::vector<double>& rates) {
    std::printf("pass rates on %s (1/s):", label);
    for (double r : rates) std::printf(" %.1f", r);
    std::printf("\n");
  };
  print_rates("all workers", rate_all);
  print_rates("1 worker", rate_one);
  return {
      {"jobs_per_s", median(rate_all), "1/s"},
      {"jobs_per_s_1t", median(rate_one), "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

void print_json(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: lumi_perfbench --workload sweep_large|micro_ckpt|certify_table1 "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--toy] [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".";
  bool toy = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--work-dir" && has_value) {
      work_dir = argv[++i];
    } else if (arg == "--toy") {
      toy = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  if (!known_workload(workload) || (trace != 0 && trace != 1) || !(seconds > 0)) return usage();

  try {
    const Workload w = make_workload(workload, seed, toy, work_dir);
    warm_compilations(w);
    const double setup_s = seconds_since(process_start);
    if (setup_only) {
      std::printf("{\"setup_s\": %.12g}\n", setup_s);
      return 0;
    }

    const unsigned threads = available_cpus();
    const std::vector<unsigned>& seeds = w.matrix.seeds;
    std::printf("workload %s%s: %zu jobs over %zu cells, %zu model_check units + 4 adversary "
                "demos, %u threads, campaign seeds %u..%u\n",
                w.name.c_str(), toy ? " (toy)" : "", w.expansion.jobs.size(),
                w.expansion.cells.size(), w.checks.size(), threads, seeds.front(),
                seeds.back());
    Tally tally;
    const std::vector<Metric> metrics = trace == 1
                                            ? traced_run(w, threads, seconds, tally)
                                            : end_to_end(w, threads, seconds, setup_s, tally);
    std::remove(w.checkpoint_path.c_str());
    std::remove((w.checkpoint_path + ".tmp").c_str());

    for (const Metric& m : metrics) {
      std::printf("metric %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    constexpr std::size_t kMaxFailureLines = 20;
    for (std::size_t i = 0; i < tally.failures.size() && i < kMaxFailureLines; ++i) {
      std::printf("FAILED: %s\n", tally.failures[i].c_str());
    }
    if (tally.failures.size() > kMaxFailureLines) {
      std::printf("FAILED: ... and %zu more\n", tally.failures.size() - kMaxFailureLines);
    }
    std::printf("failed_share = %.6g ratio (%zu of %zu units and output checks)\n",
                tally.attempted == 0 ? 0.0
                                     : static_cast<double>(tally.failed) /
                                           static_cast<double>(tally.attempted),
                tally.failed, tally.attempted);
    print_json(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lumi_perfbench: %s\n", e.what());
    return 1;
  }
}
