// Folds shard checkpoints into one campaign result.  Shards produced by
// `campaign_cli --shard=i/N --checkpoint=...` over the same matrix merge into
// a summary bit-identical to the single-process run (CSV and JSON alike).
//
//   $ ./campaign_merge --out=merged.ckpt shard0.ckpt shard1.ckpt shard2.ckpt
//   $ ./campaign_merge --csv=sweep.csv --json=sweep.json shard*.ckpt
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/campaign/checkpoint.hpp"
#include "src/core/text.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace_event.hpp"
#include "src/trace/report.hpp"

int main(int argc, char** argv) {
  using namespace lumi;

  std::string out_path, csv_path, json_path, metrics_path, trace_path;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      const std::size_t len = std::strlen(key);
      return arg.compare(0, len, key) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--out=")) {
      out_path = v;
    } else if (const char* v = value("--csv=")) {
      csv_path = v;
    } else if (const char* v = value("--json=")) {
      json_path = v;
    } else if (const char* v = value("--metrics-out=")) {
      metrics_path = v;
    } else if (const char* v = value("--trace-out=")) {
      trace_path = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "campaign_merge: unknown option '%s'\n", arg.c_str());
      std::fprintf(stderr,
                   "usage: %s [--out=MERGED.ckpt] [--csv=PATH] [--json=PATH]\n"
                   "          [--metrics-out=PATH] [--trace-out=PATH] SHARD.ckpt...\n",
                   argv[0]);
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  // Fail fast on unwritable telemetry destinations, before any shard is
  // loaded.  Append-mode probe: an existing file is left untouched.
  const auto probe_writable = [](const std::string& path, const char* flag) {
    std::ofstream probe(path, std::ios::binary | std::ios::app);
    if (!probe) {
      std::fprintf(stderr, "campaign_merge: cannot open %s path '%s' for writing\n", flag,
                   path.c_str());
      return false;
    }
    return true;
  };
  if (!metrics_path.empty() && !probe_writable(metrics_path, "--metrics-out")) return 2;
  if (!trace_path.empty() && !probe_writable(trace_path, "--trace-out")) return 2;
  // Telemetry is opt-in and result-inert: merged checkpoints and reports are
  // byte-identical with it on or off (tests/test_obs_identity.cpp).
  if (!metrics_path.empty() || !trace_path.empty()) {
    obs::Registry::global().set_enabled(true);
  }
  std::optional<obs::TraceWriter> trace;
  if (!trace_path.empty()) {
    trace.emplace(trace_path);
    obs::TraceWriter::install(&*trace);
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "campaign_merge: no shard checkpoints given\n");
    return 2;
  }

  obs::Counter& obs_shards = obs::Registry::global().counter("merge.shards_loaded");
  campaign::Checkpoint merged;
  std::size_t loaded = 0;
  for (const std::string& path : inputs) {
    obs::Span span("merge.shard", "merge");
    std::optional<campaign::Checkpoint> shard;
    try {
      shard = campaign::checkpoint_load(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign_merge: %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    if (!shard) {
      std::fprintf(stderr, "campaign_merge: cannot read %s\n", path.c_str());
      return 2;
    }
    try {
      if (loaded == 0) {
        merged = std::move(*shard);
      } else {
        campaign::checkpoint_merge(merged, *shard);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign_merge: merging %s: %s\n", path.c_str(), e.what());
      return 2;
    }
    ++loaded;
    obs_shards.add(1);
  }

  campaign::CampaignSummary summary;
  try {
    summary = campaign::checkpoint_summary(merged);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_merge: summarizing: %s\n", e.what());
    return 2;
  }
  std::printf("merged %zu checkpoints: %zu cells, %zu jobs done, "
              "terminated %ld/%ld, explored %ld/%ld, failures %ld\n",
              loaded, merged.cells.size(), merged.jobs_done(), summary.total.terminated,
              summary.total.runs, summary.total.explored_all, summary.total.runs,
              summary.total.failures);

  if (!out_path.empty()) {
    obs::Span span("checkpoint.flush", "merge");
    if (!campaign::checkpoint_write(out_path, merged)) {
      std::fprintf(stderr, "campaign_merge: failed to write %s\n", out_path.c_str());
      return 1;
    }
  }
  if (!csv_path.empty()) {
    obs::Span span("report.write", "cli");
    if (!write_file_atomic(csv_path, campaign_csv(summary))) {
      std::fprintf(stderr, "campaign_merge: failed to write %s\n", csv_path.c_str());
      return 1;
    }
  }
  if (!json_path.empty()) {
    obs::Span span("report.write", "cli");
    if (!write_file_atomic(json_path, campaign_json(summary))) {
      std::fprintf(stderr, "campaign_merge: failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (!metrics_path.empty() &&
      !write_file_atomic(metrics_path, obs::metrics_json(obs::Registry::global().snapshot()))) {
    std::fprintf(stderr, "campaign_merge: failed to write %s\n", metrics_path.c_str());
    return 1;
  }
  if (trace && !trace->flush()) {
    std::fprintf(stderr, "campaign_merge: failed to write %s\n", trace_path.c_str());
    return 1;
  }
  return 0;
}
