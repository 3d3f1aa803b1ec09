// Campaign driver: sweeps algorithms x grids x schedulers x seeds on all
// cores and prints per-cell summaries, with optional CSV/JSON reports,
// sharding, checkpoint/resume and adaptive seed escalation.
//
//   $ ./campaign_cli                              # 11 paper algorithms, small grids
//   $ ./campaign_cli --rows=4..64:12 --cols=4..64:12 --seeds=3 --csv=sweep.csv
//   $ ./campaign_cli --sections=4.3.1,4.3.5 --scheds=async-random,async-stress
//   $ ./campaign_cli --topologies=grid,holes,obstacles:15:1   # topology families sweep
//   $ ./campaign_cli --topologies=torus --max-steps=2000      # borderless worlds
//   $ ./campaign_cli --shard=0/3 --checkpoint=s0.ckpt   # then merge: campaign_merge
//   $ ./campaign_cli --checkpoint=run.ckpt              # re-run resumes where it died
//   $ ./campaign_cli --checkpoint=run.ckpt --adaptive   # extra seeds for shaky cells
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/campaign/campaign.hpp"
#include "src/campaign/orchestrate.hpp"
#include "src/campaign/shard.hpp"
#include "src/core/text.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/progress.hpp"
#include "src/obs/trace_event.hpp"
#include "src/topo/topology.hpp"
#include "src/trace/report.hpp"

namespace {

using namespace lumi;

struct Args {
  std::string sections = "paper";
  std::string scheds = "all";
  std::string topologies = "grid";
  campaign::IntRange rows{4, 10, 2};
  campaign::IntRange cols{4, 10, 2};
  int seeds = 2;
  unsigned threads = 0;
  std::size_t batch = 0;  ///< jobs per worker task: 0 = auto, 1 = per-job
  long max_steps = 1'000'000;
  std::string csv_path;
  std::string json_path;
  std::string metrics_path;  ///< telemetry snapshot JSON (docs/FORMATS.md#metrics-json)
  std::string trace_path;    ///< Chrome trace_event JSON (chrome://tracing, Perfetto)
  /// .lumirec flight recordings of the first K anomalous jobs
  /// (docs/OBSERVABILITY.md#flight-recorder); result-inert.
  campaign::AnomalyCapture record_anomalies;
  bool progress = false;     ///< force the live meter even when stderr is not a TTY
  bool quiet = false;
  bool validate_only = false;  ///< expand + analyze the matrix, run nothing
  campaign::ShardSpec shard;  ///< default 0/1: the whole matrix
  std::string checkpoint_path;
  double flush_interval = 5.0;
  std::size_t max_jobs = 0;
  campaign::AdaptivePolicy adaptive;
};

/// Wraps campaign::range_from_string with a loud diagnostic: a bad range
/// (zero/negative step, garbage text) must abort with a clear message, never
/// hang in or overshoot the sweep loop.
bool parse_range(const std::string& text, campaign::IntRange& range) {
  const std::optional<campaign::IntRange> parsed = campaign::range_from_string(text);
  if (!parsed) {
    std::fprintf(stderr,
                 "bad range '%s': expected N, FROM..TO or FROM..TO:STEP "
                 "with positive FROM and STEP >= 1\n",
                 text.c_str());
    return false;
  }
  range = *parsed;
  return true;
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return arg.compare(0, len, key) == 0 ? arg.c_str() + len : nullptr;
    };
    // Every rejection names the offending flag: "which argument was wrong"
    // must never require re-reading the usage text.
    auto bad_value = [&arg]() {
      std::fprintf(stderr, "bad value in '%s'\n", arg.c_str());
      return false;
    };
    if (const char* v = value("--sections=")) {
      args.sections = v;
    } else if (const char* v = value("--scheds=")) {
      args.scheds = v;
    } else if (const char* v = value("--topologies=")) {
      args.topologies = v;
    } else if (const char* v = value("--rows=")) {
      if (!parse_range(v, args.rows)) return false;
    } else if (const char* v = value("--cols=")) {
      if (!parse_range(v, args.cols)) return false;
    } else if (const char* v = value("--seeds=")) {
      if (!parse_number(v, args.seeds, 1)) return bad_value();
    } else if (const char* v = value("--threads=")) {
      if (!parse_number(v, args.threads)) return bad_value();
    } else if (const char* v = value("--batch=")) {
      // 0 = automatic per-cell sizing; 1 = the per-job reference path.
      // Reports are byte-identical at any value — this is a perf knob only.
      if (!parse_number(v, args.batch)) return bad_value();
    } else if (const char* v = value("--max-steps=")) {
      if (!parse_number(v, args.max_steps, 1)) return bad_value();
    } else if (const char* v = value("--csv=")) {
      args.csv_path = v;
    } else if (const char* v = value("--json=")) {
      args.json_path = v;
    } else if (const char* v = value("--metrics-out=")) {
      args.metrics_path = v;
    } else if (const char* v = value("--trace-out=")) {
      args.trace_path = v;
    } else if (const char* v = value("--record-anomalies=")) {
      // DIR or DIR,K — capture the first K anomalous jobs as .lumirec files.
      const std::string spec = v;
      const std::size_t comma = spec.rfind(',');
      if (comma != std::string::npos) {
        if (!parse_number(spec.c_str() + comma + 1, args.record_anomalies.limit, 1)) {
          return bad_value();
        }
        args.record_anomalies.dir = spec.substr(0, comma);
      } else {
        args.record_anomalies.dir = spec;
      }
      if (args.record_anomalies.dir.empty()) return bad_value();
    } else if (const char* v = value("--shard=")) {
      const auto spec = campaign::shard_from_string(v);
      if (!spec) return bad_value();
      args.shard = *spec;
    } else if (const char* v = value("--checkpoint=")) {
      args.checkpoint_path = v;
    } else if (const char* v = value("--flush-interval=")) {
      if (!parse_number(v, args.flush_interval) || args.flush_interval <= 0) {
        return bad_value();
      }
    } else if (const char* v = value("--max-jobs=")) {
      if (!parse_number(v, args.max_jobs)) return bad_value();
    } else if (arg == "--adaptive") {
      args.adaptive.enabled = true;
    } else if (const char* v = value("--adaptive-max-extra=")) {
      args.adaptive.enabled = true;
      if (!parse_number(v, args.adaptive.max_extra_seeds)) return bad_value();
    } else if (const char* v = value("--adaptive-round=")) {
      args.adaptive.enabled = true;
      if (!parse_number(v, args.adaptive.seeds_per_round, 1)) return bad_value();
    } else if (const char* v = value("--adaptive-variance=")) {
      args.adaptive.enabled = true;
      if (!parse_number(v, args.adaptive.instants_variance_threshold)) return bad_value();
    } else if (arg == "--progress") {
      args.progress = true;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg == "--validate-only") {
      args.validate_only = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  // A single shard sees only its slice of each cell, so its stats cannot
  // drive escalation decisions; escalate on the full matrix (or a merged
  // checkpoint) instead.
  if (args.adaptive.enabled && args.shard.count > 1) {
    std::fprintf(stderr, "--adaptive needs whole-cell stats and excludes --shard\n");
    return false;
  }
  return true;
}

bool build_matrix(const Args& args, campaign::Matrix& matrix) {
  if (args.sections == "paper") {
    matrix.sections = campaign::paper_sections();
  } else if (args.sections == "all") {
    matrix.sections = campaign::all_sections();
  } else {
    matrix.sections = split_csv(args.sections);
  }
  if (args.scheds == "all") {
    matrix.schedulers.assign(std::begin(campaign::kAllSchedKinds),
                             std::end(campaign::kAllSchedKinds));
  } else {
    for (const std::string& name : split_csv(args.scheds)) {
      const auto kind = campaign::sched_from_name(name);
      if (!kind) {
        std::fprintf(stderr, "unknown scheduler '%s'\n", name.c_str());
        return false;
      }
      matrix.schedulers.push_back(*kind);
    }
  }
  matrix.topologies = split_csv(args.topologies);
  for (const std::string& spec : matrix.topologies) {
    // Syntax-only check: a typo aborts loudly instead of silently expanding
    // to nothing (expansion skips what cannot be built), while a well-formed
    // spec that only fits some of the swept dimensions is judged per cell at
    // expansion.
    if (!lumi::topology_spec_parses(spec)) {
      std::fprintf(stderr, "bad topology '%s': expected %s\n", spec.c_str(),
                   lumi::topology_spec_grammar());
      return false;
    }
  }
  matrix.rows = args.rows;
  matrix.cols = args.cols;
  matrix.seeds.clear();
  for (int s = 1; s <= args.seeds; ++s) matrix.seeds.push_back(static_cast<unsigned>(s));
  matrix.options.max_steps = args.max_steps;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s [--sections=paper|all|4.2.1,...] [--rows=4..10:2] [--cols=4..10:2]\n"
                 "          [--topologies=SPEC,...] [--scheds=all|fsync,ssync-random,ssync-rr,"
                 "async-random,async-central,async-stress]\n"
                 "          [--seeds=N] [--threads=N] [--batch=N] [--max-steps=N]\n"
                 "          [--csv=PATH] [--json=PATH] [--metrics-out=PATH] [--trace-out=PATH]\n"
                 "          [--record-anomalies=DIR[,K]] [--progress] [--quiet] [--validate-only]\n"
                 "          [--shard=I/N] [--checkpoint=PATH] [--flush-interval=SEC]\n"
                 "          [--max-jobs=N] [--adaptive] [--adaptive-max-extra=N]\n"
                 "          [--adaptive-round=N] [--adaptive-variance=X]\n"
                 "  --topologies     each SPEC is %s\n"
                 "  --batch=N        jobs grouped per worker task: 0 = per-cell automatic,\n"
                 "                   1 = one job per task; reports are byte-identical at any N\n"
                 "  --metrics-out    telemetry counters/gauges/histograms as JSON\n"
                 "                   (docs/FORMATS.md#metrics-json)\n"
                 "  --trace-out      Chrome trace_event JSON for chrome://tracing / Perfetto\n"
                 "  --record-anomalies  dump .lumirec flight recordings of the first K\n"
                 "                   anomalous jobs (default K=8) into DIR; inspect with\n"
                 "                   run_doctor.  Result-inert: reports/checkpoints are\n"
                 "                   byte-identical with or without it\n"
                 "  --progress       live stderr meter even when stderr is not a TTY\n"
                 "  --validate-only  expand the matrix and run the rule-table analyzer on\n"
                 "                   every section, then exit without running any job\n"
                 "  --adaptive       needs whole-cell stats and excludes --shard\n",
                 argv[0], lumi::topology_spec_grammar());
    return 2;
  }

  campaign::Matrix matrix;
  if (!build_matrix(args, matrix)) return 2;

  campaign::Expansion expansion;
  try {
    expansion = campaign::expand(matrix);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad matrix: %s\n", e.what());
    return 2;
  }
  if (expansion.jobs.empty()) {
    std::fprintf(stderr, "matrix expands to zero jobs\n");
    return 1;
  }
  if (args.shard.count > 1) expansion = campaign::shard(expansion, args.shard);
  std::printf("campaign: %zu algorithms x %zu cells -> %zu jobs (shard %s)\n",
              matrix.sections.size(), expansion.cells.size(), expansion.jobs.size(),
              to_string(args.shard).c_str());
  if (args.validate_only) {
    // expand() already ran the rule-table analyzer over every section (an
    // ill-formed one aborted above with its findings), so reaching this
    // point IS the validation verdict.
    std::printf("validate-only: %zu sections well-formed, nothing run\n",
                matrix.sections.size());
    return 0;
  }

  // Fail fast on unwritable telemetry destinations: a long campaign must
  // not discover at the finish line that its outputs cannot be written.
  // The probe opens in append mode, so an existing file is left untouched.
  const auto probe_writable = [](const std::string& path, const char* flag) {
    std::ofstream probe(path, std::ios::binary | std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "cannot open %s path '%s' for writing\n", flag, path.c_str());
      return false;
    }
    return true;
  };
  if (!args.metrics_path.empty() && !probe_writable(args.metrics_path, "--metrics-out")) {
    return 2;
  }
  if (!args.trace_path.empty() && !probe_writable(args.trace_path, "--trace-out")) return 2;
  if (!args.record_anomalies.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.record_anomalies.dir, ec);
    if (ec || !std::filesystem::is_directory(args.record_anomalies.dir)) {
      std::fprintf(stderr, "cannot create --record-anomalies directory '%s'%s%s\n",
                   args.record_anomalies.dir.c_str(), ec ? ": " : "",
                   ec ? ec.message().c_str() : "");
      return 2;
    }
  }

  // Telemetry master switch: flipped before any instrumented code runs, and
  // only when something will consume it — the meter (whose final summary now
  // prints for any non-quiet run, TTY or not), --metrics-out or --trace-out.
  // Reports are byte-identical either way (tests/test_obs_identity.cpp).
  const bool meter_wanted = !args.quiet;
  if (meter_wanted || !args.metrics_path.empty() || !args.trace_path.empty()) {
    obs::Registry::global().set_enabled(true);
  }
  std::optional<obs::TraceWriter> trace;
  if (!args.trace_path.empty()) {
    trace.emplace(args.trace_path);
    obs::TraceWriter::install(&*trace);
  }

  // The resume/escalation tally is only printed when one of those features
  // is in play.
  const bool orchestrated = args.shard.count > 1 || !args.checkpoint_path.empty() ||
                            args.adaptive.enabled || args.max_jobs != 0;
  obs::ProgressMeter::Options meter_opts;
  meter_opts.total_jobs = expansion.jobs.size();
  meter_opts.total_cells = expansion.cells.size();
  meter_opts.force = args.progress;
  std::optional<obs::ProgressMeter> meter;
  if (meter_wanted) meter.emplace(meter_opts);
  campaign::OrchestratorOptions opts;
  opts.threads = args.threads;
  opts.checkpoint_path = args.checkpoint_path;
  opts.flush_seconds = args.flush_interval;
  opts.max_jobs = args.max_jobs;
  opts.batch = args.batch;
  opts.adaptive = args.adaptive;
  opts.record_anomalies = args.record_anomalies;
  campaign::OrchestratorReport report;
  try {
    report = campaign::run_orchestrated(expansion, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orchestration failed: %s\n", e.what());
    return 2;
  }
  if (orchestrated) {
    std::printf("orchestrator: %zu skipped (checkpoint), %zu executed, "
                "%zu escalation jobs over %u rounds%s\n",
                report.jobs_skipped, report.jobs_executed, report.escalation_jobs,
                report.escalation_rounds,
                report.complete ? "" : " — INCOMPLETE (max-jobs hit), resume with --checkpoint");
  }
  const campaign::CampaignSummary summary = std::move(report.summary);
  const bool complete = report.complete;
  meter.reset();  // joins the sampler and clears the status line

  if (!args.quiet) {
    std::printf("%-8s %-8s %-16s %-14s %6s %6s %6s %10s %10s\n", "section", "grid", "topo",
                "sched", "runs", "term", "expl", "instants", "moves");
    for (const campaign::CellSummary& cell : summary.cells) {
      std::printf("%-8s %3dx%-4d %-16s %-14s %6ld %6ld %6ld %10.1f %10.1f\n",
                  cell.cell.section.c_str(), cell.cell.rows, cell.cell.cols,
                  cell.cell.topo.c_str(), to_string(cell.cell.sched).c_str(), cell.acc.runs,
                  cell.acc.terminated, cell.acc.explored_all, cell.acc.instants.mean(),
                  cell.acc.moves.mean());
    }
  }

  const double rate =
      summary.wall_seconds > 0 ? static_cast<double>(summary.jobs) / summary.wall_seconds : 0.0;
  std::printf("total: %zu jobs over %zu cells on %u threads in %.2fs (%.1f jobs/s), "
              "terminated %ld/%ld, explored %ld/%ld, failures %ld\n",
              summary.jobs, summary.cells.size(), summary.threads, summary.wall_seconds, rate,
              summary.total.terminated, summary.total.runs, summary.total.explored_all,
              summary.total.runs, summary.total.failures);

  if (!args.csv_path.empty()) {
    // Span in the CLI, not in src/trace: obs-isolation keeps report
    // rendering free of obs:: symbols.
    obs::Span span("report.write", "cli");
    if (!write_file_atomic(args.csv_path, campaign_csv(summary))) {
      std::fprintf(stderr, "failed to write %s\n", args.csv_path.c_str());
      return 1;
    }
  }
  if (!args.json_path.empty()) {
    obs::Span span("report.write", "cli");
    if (!write_file_atomic(args.json_path, campaign_json(summary))) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      return 1;
    }
  }
  if (!args.metrics_path.empty() &&
      !write_file_atomic(args.metrics_path,
                         obs::metrics_json(obs::Registry::global().snapshot()))) {
    std::fprintf(stderr, "failed to write %s\n", args.metrics_path.c_str());
    return 1;
  }
  if (trace && !trace->flush()) {
    std::fprintf(stderr, "failed to write %s\n", args.trace_path.c_str());
    return 1;
  }

  const bool all_ok = complete && summary.total.terminated == summary.total.runs &&
                      summary.total.explored_all == summary.total.runs &&
                      summary.total.failures == 0;
  return all_ok ? 0 : 1;
}
