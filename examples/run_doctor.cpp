// run_doctor: load, replay, certify, diagnose and diff `.lumirec` flight
// recordings (docs/OBSERVABILITY.md#flight-recorder).
//
//   run_doctor FILE.lumirec              full report: provenance, diagnosis,
//                                        rule fire counts, per-robot
//                                        timelines, cycle certification,
//                                        replay verification
//   run_doctor --verify FILE.lumirec     deterministic replay only; exits
//                                        non-zero unless the re-recording
//                                        equals the file, listing every
//                                        differing field (recorded vs
//                                        replayed)
//   run_doctor --certify FILE.lumirec    replay the recorded cycle witness
//                                        and check the configuration recurs
//   run_doctor --diff A.lumirec B.lumirec  every differing field, A vs B,
//                                        in the format --verify prints
//   run_doctor --record=OUT.lumirec --section=4.2.1 [--rows=N] [--cols=N]
//              [--topo=SPEC] [--sched=NAME] [--seed=N] [--max-steps=N]
//              [--capacity=N] [--table=FILE.lumi]
//                                        run one cell with a recorder and
//                                        write the recording (--table records
//                                        an ad-hoc DSL table instead of a
//                                        registry section)
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/algorithms/registry.hpp"
#include "src/campaign/campaign.hpp"
#include "src/campaign/doctor.hpp"
#include "src/core/text.hpp"
#include "src/dsl/dsl.hpp"
#include "src/obs/recorder.hpp"
#include "src/topo/topology.hpp"

namespace {

using namespace lumi;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--verify|--certify] FILE.lumirec\n"
               "       %s --diff A.lumirec B.lumirec\n"
               "       %s --record=OUT.lumirec --section=SEC [--table=FILE.lumi]\n"
               "          [--rows=N] [--cols=N] [--topo=SPEC] [--sched=NAME] [--seed=N]\n"
               "          [--max-steps=N] [--capacity=N] [--unique-actions]\n",
               argv0, argv0, argv0);
  return 2;
}

int bad_value(const std::string& arg, const char* argv0) {
  std::fprintf(stderr, "run_doctor: bad value in '%s'\n", arg.c_str());
  return usage(argv0);
}

obs::Recording load_or_die(const std::string& path) {
  const std::optional<obs::Recording> rec = obs::recording_load(path);
  if (!rec.has_value()) {
    std::fprintf(stderr, "run_doctor: cannot open '%s'\n", path.c_str());
    std::exit(1);
  }
  return *rec;
}

int verify(const obs::Recording& rec) {
  const std::vector<std::string> divergences = campaign::replay_recording(rec);
  if (divergences.empty()) {
    std::printf("replay: identical (final configuration, stats, event tail)\n");
    return 0;
  }
  std::fprintf(stderr,
               "replay: DIVERGED — the recording does not reproduce (recorded vs replayed):\n");
  for (const std::string& d : divergences) {
    std::fprintf(stderr, "  %s\n", d.c_str());
  }
  return 1;
}

int certify(const obs::Recording& rec) {
  std::string why;
  if (campaign::certify_cycle(rec, why)) {
    std::printf("cycle: CERTIFIED — configuration at instant %ld recurs at instant %ld "
                "(period %ld); the execution loops forever\n",
                rec.cycle->start, rec.cycle->start + rec.cycle->length, rec.cycle->length);
    return 0;
  }
  std::fprintf(stderr, "cycle: NOT certified — %s\n", why.c_str());
  return 1;
}

int report(const std::string& path) {
  const obs::Recording rec = load_or_die(path);
  std::printf("recording %s\n", path.c_str());
  std::printf("  section    %s\n",
              rec.prov.section.empty() ? "(ad-hoc table)" : rec.prov.section.c_str());
  std::printf("  world      %dx%d %s\n", rec.prov.rows, rec.prov.cols,
              rec.prov.topo_spec.c_str());
  std::printf("  scheduler  %s seed %u, budget %ld\n", rec.prov.scheduler.c_str(),
              rec.prov.seed, rec.prov.max_steps);
  std::printf("  outcome    terminated=%d explored_all=%d instants=%ld activations=%ld "
              "moves=%ld color_changes=%ld\n",
              rec.terminated ? 1 : 0, rec.explored_all ? 1 : 0, rec.instants,
              rec.activations, rec.moves, rec.color_changes);
  if (!rec.failure.empty()) std::printf("  failure    %s\n", rec.failure.c_str());
  std::printf("  diagnosis  %s\n", obs::to_string(rec.diagnosis).c_str());
  if (rec.cycle.has_value()) {
    std::printf("  witness    instant %ld recurs at %ld (period %ld, hash %016llx)\n",
                rec.cycle->start, rec.cycle->start + rec.cycle->length, rec.cycle->length,
                static_cast<unsigned long long>(rec.cycle->hash));
  }
  std::printf("  events     %lld seen, %zu kept\n\n", rec.events_seen, rec.events.size());
  std::printf("%s\n", campaign::rule_fire_counts(rec).c_str());
  std::printf("%s\n", campaign::per_robot_timeline(rec).c_str());
  int status = 0;
  if (rec.cycle.has_value()) status |= certify(rec);
  status |= verify(rec);
  return status;
}

int record(int argc, char** argv) {
  std::string out_path;
  std::string section;
  std::string table_path;
  std::string topo_spec = "grid";
  std::string sched_name = "fsync";
  int rows = 4;
  int cols = 5;
  unsigned seed = 1;
  long max_steps = 100000;
  std::size_t capacity = 4096;
  bool unique_actions = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> std::optional<std::string> {
      const std::size_t n = std::strlen(key);
      if (arg.compare(0, n, key) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.substr(n + 1);
      }
      return std::nullopt;
    };
    if (const auto v = value("--record")) {
      out_path = *v;
    } else if (const auto v = value("--section")) {
      section = *v;
    } else if (const auto v = value("--table")) {
      table_path = *v;
    } else if (const auto v = value("--topo")) {
      topo_spec = *v;
    } else if (const auto v = value("--sched")) {
      sched_name = *v;
    } else if (const auto v = value("--rows")) {
      if (!parse_number(*v, rows, 1)) return bad_value(arg, argv[0]);
    } else if (const auto v = value("--cols")) {
      if (!parse_number(*v, cols, 1)) return bad_value(arg, argv[0]);
    } else if (const auto v = value("--seed")) {
      if (!parse_number(*v, seed)) return bad_value(arg, argv[0]);
    } else if (const auto v = value("--max-steps")) {
      if (!parse_number(*v, max_steps, 1)) return bad_value(arg, argv[0]);
    } else if (const auto v = value("--capacity")) {
      if (!parse_number(*v, capacity)) return bad_value(arg, argv[0]);
    } else if (arg == "--unique-actions") {
      unique_actions = true;
    } else {
      std::fprintf(stderr, "run_doctor: unknown --record argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (out_path.empty() || (section.empty() == table_path.empty())) {
    std::fprintf(stderr,
                 "run_doctor: --record needs an output path and exactly one of "
                 "--section / --table\n");
    return usage(argv[0]);
  }

  Algorithm alg;
  if (!table_path.empty()) {
    const std::optional<std::string> text = read_file(table_path);
    if (!text) {
      std::fprintf(stderr, "run_doctor: cannot open table '%s'\n", table_path.c_str());
      return 1;
    }
    // Unvalidated on purpose: recording deliberately defective tables (the
    // livelock example in docs/OBSERVABILITY.md) is a primary use.
    alg = dsl::parse(*text);
  } else {
    alg = algorithms::entry(section).make();
  }
  // An unknown scheduler name throws from record_run.
  const obs::Recording rec = campaign::record_run(
      campaign::capture_options(sched_name, capacity),
      {.section = section,
       .algorithm_text = dsl::serialize(alg),
       .topo_spec = make_topology(topo_spec, rows, cols).spec(),
       .rows = rows,
       .cols = cols,
       .scheduler = sched_name,
       .seed = seed,
       .max_steps = max_steps,
       .require_unique_actions = unique_actions});
  if (!obs::recording_write(out_path, rec)) {
    std::fprintf(stderr, "run_doctor: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::printf("recorded %s: diagnosis %s (%lld events seen, %zu kept)\n", out_path.c_str(),
              obs::to_string(rec.diagnosis).c_str(), rec.events_seen, rec.events.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage(argv[0]);
    for (const std::string& a : args) {
      if (a.rfind("--record=", 0) == 0) return record(argc, argv);
    }
    if (args[0] == "--verify" && args.size() == 2) {
      return verify(load_or_die(args[1]));
    }
    if (args[0] == "--certify" && args.size() == 2) {
      return certify(load_or_die(args[1]));
    }
    if (args[0] == "--diff" && args.size() == 3) {
      const std::vector<std::string> diff =
          campaign::diff_recordings(load_or_die(args[1]), load_or_die(args[2]));
      if (diff.empty()) {
        std::printf("recordings identical\n");
        return 0;
      }
      for (const std::string& line : diff) std::printf("%s\n", line.c_str());
      return 1;
    }
    if (args.size() == 1 && args[0][0] != '-') return report(args[0]);
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_doctor: %s\n", e.what());
    return 1;
  }
}
