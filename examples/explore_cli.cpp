// Command-line driver over the whole catalog: run any Table-1 algorithm on
// any topology (plain grid, torus, ring, holed or obstacle grid) under any
// scheduler, optionally printing the full trace.
//
//   $ ./explore_cli --section=4.3.5 --rows=4 --cols=6 --sched=async-random --seed=7 --trace
//   $ ./explore_cli --section=4.2.1 --rows=6 --cols=6 --topology=holes --trace
//   $ ./explore_cli --section=4.3.1 --rows=8 --cols=8 --topology=obstacles:15:3
//   $ ./explore_cli --section=4.3.5 --rows=4 --cols=8 --topology=torus --max-steps=2000
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"
#include "src/core/text.hpp"
#include "src/engine/runner.hpp"
#include "src/topo/topology.hpp"
#include "src/trace/ascii_render.hpp"

namespace {

struct Args {
  std::string section = "4.2.1";
  int rows = 4;
  int cols = 6;
  std::string topology = "grid";
  std::string sched = "auto";
  unsigned seed = 1;
  long max_steps = 1'000'000;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return arg.compare(0, len, key) == 0 ? arg.c_str() + len : nullptr;
    };
    auto bad_value = [&arg]() {
      std::fprintf(stderr, "bad value in '%s'\n", arg.c_str());
      return false;
    };
    if (const char* v = value("--section=")) {
      args.section = v;
    } else if (const char* v = value("--rows=")) {
      if (!lumi::parse_number(v, args.rows, 1)) return bad_value();
    } else if (const char* v = value("--cols=")) {
      if (!lumi::parse_number(v, args.cols, 1)) return bad_value();
    } else if (const char* v = value("--topology=")) {
      args.topology = v;
    } else if (const char* v = value("--sched=")) {
      args.sched = v;
    } else if (const char* v = value("--seed=")) {
      if (!lumi::parse_number(v, args.seed)) return bad_value();
    } else if (const char* v = value("--max-steps=")) {
      if (!lumi::parse_number(v, args.max_steps, 1)) return bad_value();
    } else if (arg == "--trace") {
      args.trace = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lumi;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s [--section=4.2.1] [--rows=R] [--cols=C]\n"
                 "          [--topology=%s]\n"
                 "          [--sched=auto|fsync|ssync-random|ssync-rr|async-random|"
                 "async-central|async-stress]\n"
                 "          [--seed=N] [--max-steps=N] [--trace]\n",
                 argv[0], lumi::topology_spec_grammar());
    return 2;
  }

  Algorithm alg;
  std::optional<Grid> built;
  try {
    alg = algorithms::entry(args.section).make();  // throws on an unknown section
    built.emplace(make_topology(args.topology, args.rows, args.cols));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const Grid& grid = *built;
  RunOptions opts;
  opts.record_trace = args.trace;
  opts.max_steps = args.max_steps;

  // `auto` runs the algorithm under the random scheduler of its own model.
  std::string sched = args.sched;
  if (sched == "auto") {
    sched = alg.model == Synchrony::Fsync   ? "fsync"
            : alg.model == Synchrony::Ssync ? "ssync-random"
                                            : "async-random";
  }
  const std::optional<campaign::SchedKind> kind = campaign::sched_from_name(sched);
  if (!kind) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", sched.c_str());
    return 2;
  }

  RunResult result;
  try {
    result = campaign::run_with_sched(CellPlan(alg, grid), *kind, args.seed, opts);
  } catch (const std::exception& e) {
    // e.g. a bounding box below the algorithm's minimum, or a topology
    // whose walls displace the initial placement.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (args.trace) std::cout << render_trace(result.trace);
  std::printf("%s on %s under %s: terminated=%s explored=%d/%d instants=%ld moves=%ld "
              "color_changes=%ld%s%s\n",
              alg.name.c_str(), grid.to_string().c_str(), sched.c_str(),
              result.terminated ? "yes" : "no", result.visited_count(), grid.reachable_nodes(),
              result.stats.instants, result.stats.moves, result.stats.color_changes,
              result.failure.empty() ? "" : " failure=", result.failure.c_str());
  return result.ok() ? 0 : 1;
}
