#include "src/campaign/campaign.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <stdexcept>

#include "src/algorithms/registry.hpp"
#include "src/analysis/rule_analysis.hpp"
#include "src/campaign/doctor.hpp"
#include "src/core/text.hpp"
#include "src/dsl/dsl.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/recorder.hpp"
#include "src/obs/trace_event.hpp"
#include "src/sched/async_schedulers.hpp"
#include "src/sched/sync_schedulers.hpp"
#include "src/topo/topology.hpp"

namespace lumi::campaign {

std::string to_string(SchedKind kind) {
  switch (kind) {
    case SchedKind::Fsync: return "fsync";
    case SchedKind::SsyncRandom: return "ssync-random";
    case SchedKind::SsyncRoundRobin: return "ssync-rr";
    case SchedKind::AsyncRandom: return "async-random";
    case SchedKind::AsyncCentralized: return "async-central";
    case SchedKind::AsyncStaleStress: return "async-stress";
  }
  throw std::invalid_argument("to_string: bad SchedKind");
}

std::optional<SchedKind> sched_from_name(const std::string& name) {
  for (SchedKind kind : kAllSchedKinds) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

bool sched_is_deterministic(SchedKind kind) {
  switch (kind) {
    case SchedKind::Fsync:
    case SchedKind::SsyncRoundRobin:
    case SchedKind::AsyncCentralized: return true;
    case SchedKind::SsyncRandom:
    case SchedKind::AsyncRandom:
    case SchedKind::AsyncStaleStress: return false;
  }
  throw std::invalid_argument("sched_is_deterministic: bad SchedKind");
}

Synchrony sched_synchrony(SchedKind kind) {
  switch (kind) {
    case SchedKind::Fsync: return Synchrony::Fsync;
    case SchedKind::SsyncRandom:
    case SchedKind::SsyncRoundRobin: return Synchrony::Ssync;
    case SchedKind::AsyncRandom:
    case SchedKind::AsyncCentralized:
    case SchedKind::AsyncStaleStress: return Synchrony::Async;
  }
  throw std::invalid_argument("sched_synchrony: bad SchedKind");
}

bool compatible(Synchrony model, SchedKind kind) {
  // Synchrony is declared in weakness order Fsync < Ssync < Async; an
  // algorithm tolerating `model` also tolerates every weaker scheduler.
  return static_cast<int>(sched_synchrony(kind)) <= static_cast<int>(model);
}

std::vector<int> IntRange::values() const {
  std::vector<int> out;
  if (step <= 0) {
    throw std::invalid_argument("IntRange: step must be positive, got " + std::to_string(step));
  }
  // The loop variable is widened to 64 bits so `v += step` cannot overflow
  // (and so a huge step can never spin or overshoot past `to`); `to` itself
  // is always emitted, aligned with `step` or not.
  for (std::int64_t v = from; v < to; v += step) out.push_back(static_cast<int>(v));
  if (from <= to) out.push_back(to);
  return out;
}

std::optional<IntRange> range_from_string(const std::string& text) {
  IntRange out{0, 0, 1};
  const std::size_t dots = text.find("..");
  if (dots == std::string::npos) {
    if (!parse_number(text, out.from, 1)) return std::nullopt;
    out.to = out.from;
    return out;
  }
  std::string rest = text.substr(dots + 2);
  const std::size_t colon = rest.find(':');
  if (colon != std::string::npos) {
    if (!parse_number(rest.substr(colon + 1), out.step, 1)) return std::nullopt;
    rest = rest.substr(0, colon);
  }
  if (!parse_number(text.substr(0, dots), out.from, 1) || !parse_number(rest, out.to)) {
    return std::nullopt;
  }
  return out;
}

std::string to_string(const Cell& cell) {
  return cell.section + " " + std::to_string(cell.rows) + "x" + std::to_string(cell.cols) +
         (cell.topo == "grid" ? "" : "/" + cell.topo) + " " + to_string(cell.sched);
}

Expansion expand(const Matrix& matrix) {
  Expansion out;
  out.options = matrix.options;
  const std::vector<int> rows = matrix.rows.values();
  const std::vector<int> cols = matrix.cols.values();
  for (const std::string& section : matrix.sections) {
    const algorithms::TableEntry& e = algorithms::entry(section);  // throws if unknown
    const Algorithm alg = e.make();
    // Static gate before any job runs: an ill-formed rule table (determinism
    // conflict, wall hazard, dead rule, ...) would silently skew every sweep
    // cell built from it.  The throw carries the analyzer's findings text.
    analysis::require_well_formed(alg);
    for (int r : rows) {
      for (int c : cols) {
        if (r < alg.min_rows || c < alg.min_cols) continue;
        for (const std::string& spec : matrix.topologies) {
          // Build once at expansion: canonicalizes the spec (e.g. "holes" ->
          // "holes:2x2@3x3" at these dimensions), rejects families that
          // cannot exist here, and checks the algorithm's initial placement
          // survives the wall mask.
          std::string canonical;
          bool placement_ok = true;
          try {
            const Topology topo = make_topology(spec, r, c);
            canonical = topo.spec();
            for (const auto& [pos, color] : alg.initial_robots) {
              (void)color;
              placement_ok = placement_ok && topo.contains(pos);
            }
          } catch (const std::exception&) {
            continue;
          }
          if (!placement_ok) continue;
          for (SchedKind kind : matrix.schedulers) {
            if (!compatible(alg.model, kind)) continue;
            const std::size_t cell = out.cells.size();
            out.cells.push_back({section, r, c, kind, canonical});
            if (sched_is_deterministic(kind)) {
              out.jobs.push_back({cell, 0});
            } else {
              for (unsigned seed : matrix.seeds) out.jobs.push_back({cell, seed});
            }
          }
        }
      }
    }
  }
  return out;
}

RunResult run_with_sched(const CellPlan& plan, SchedKind kind, unsigned seed,
                         const RunOptions& opts) {
  switch (kind) {
    case SchedKind::Fsync: {
      FsyncScheduler s;
      return run_sync(plan, s, opts);
    }
    case SchedKind::SsyncRandom: {
      SsyncRandomScheduler s(seed);
      return run_sync(plan, s, opts);
    }
    case SchedKind::SsyncRoundRobin: {
      SsyncRoundRobinScheduler s;
      return run_sync(plan, s, opts);
    }
    case SchedKind::AsyncRandom: {
      AsyncRandomScheduler s(seed);
      return run_async(plan, s, opts);
    }
    case SchedKind::AsyncCentralized: {
      AsyncCentralizedScheduler s;
      return run_async(plan, s, opts);
    }
    case SchedKind::AsyncStaleStress: {
      AsyncStaleStressScheduler s(seed);
      return run_async(plan, s, opts);
    }
  }
  throw std::invalid_argument("run_with_sched: bad SchedKind");
}

CellPlan plan_cell(const Cell& cell) {
  return CellPlan(algorithms::entry(cell.section).make(),
                  make_topology(cell.topo, cell.rows, cell.cols));
}

namespace {

RunResult failure_result(const std::exception& e) {
  RunResult r;
  r.failure = std::string("exception: ") + e.what();
  return r;
}

/// Filesystem-safe token for recording filenames ("obstacles:15:7" ->
/// "obstacles-15-7").
std::string sanitize_for_filename(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '-';
  }
  return out;
}

}  // namespace

bool capture_anomaly(const Cell& cell, unsigned seed, const RunOptions& base,
                     const AnomalyCapture& capture) {
  try {
    // The job's budget and verifier carry over, so the re-run reproduces the
    // anomaly exactly.
    const obs::Recorder::Provenance prov{
        .section = cell.section,
        .algorithm_text = dsl::serialize(algorithms::entry(cell.section).make()),
        .topo_spec = make_topology(cell.topo, cell.rows, cell.cols).spec(),
        .rows = cell.rows,
        .cols = cell.cols,
        .scheduler = to_string(cell.sched),
        .seed = seed,
        .max_steps = base.max_steps,
        .require_unique_actions = base.require_unique_actions};
    const obs::Recording rec = record_run(capture_options(prov.scheduler, 4096), prov);
    const std::string name = "anomaly-" + sanitize_for_filename(cell.section) + "-" +
                             std::to_string(cell.rows) + "x" + std::to_string(cell.cols) + "-" +
                             sanitize_for_filename(cell.topo) + "-" + to_string(cell.sched) +
                             "-s" + std::to_string(seed) + ".lumirec";
    return obs::recording_write(capture.dir + "/" + name, rec);
  } catch (const std::exception&) {
    return false;  // capture must never kill the campaign it observes
  }
}

RunResult run_cell(const Cell& cell, unsigned seed, const RunOptions& options) {
  return run_with_sched(plan_cell(cell), cell.sched, seed, options);
}

RunResult run_cell_guarded(const Cell& cell, unsigned seed, const RunOptions& options) {
  try {
    return run_cell(cell, seed, options);
  } catch (const std::exception& e) {
    return failure_result(e);
  }
}

std::size_t auto_batch_size(const Cell& cell) {
  // ~1024 bounding-box nodes of sync work per task: a 4x4 grid batches 64
  // micro-runs, 16x16 batches 4, 32x32 runs singly.  Async runs take ~3-4
  // events per cycle at equal area, so they batch a quarter as deep.
  const long area = static_cast<long>(cell.rows) * static_cast<long>(cell.cols);
  const long weight = sched_synchrony(cell.sched) == Synchrony::Async ? 4 : 1;
  const long batch = 1024 / std::max<long>(1, area * weight);
  return static_cast<std::size_t>(std::clamp<long>(batch, 1, 64));
}

void run_cell_batch(const Cell& cell, std::span<const unsigned> seeds,
                    const RunOptions& options,
                    const std::function<void(std::size_t, const RunResult&)>& sink) {
  // Telemetry handles, resolved once per process (cold, locked).  Recording
  // is a relaxed load + branch while the registry is disabled; the counters
  // observe the batch, they never feed results (obs-isolation).
  static obs::Histogram& obs_batch_items =
      obs::Registry::global().histogram("campaign.batch_items", {1, 2, 4, 8, 16, 32, 64});
  static obs::Counter& obs_jobs_done = obs::Registry::global().counter("campaign.jobs_done");
  static obs::Counter& obs_match_reused =
      obs::Registry::global().counter("campaign.match.reused");
  static obs::Counter& obs_match_recomputed =
      obs::Registry::global().counter("campaign.match.recomputed");
  obs_batch_items.record(static_cast<long long>(seeds.size()));
  obs::Span span("campaign.batch", "campaign");
  span.set_arg("items", static_cast<long long>(seeds.size()));

  std::optional<CellPlan> plan;
  try {
    plan.emplace(plan_cell(cell));
  } catch (const std::exception& e) {
    const RunResult r = failure_result(e);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      obs_jobs_done.add(1);
      sink(i, r);
    }
    return;
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    try {
      const RunResult r = run_with_sched(*plan, cell.sched, seeds[i], options);
      obs_match_reused.add(r.stats.match_reused);
      obs_match_recomputed.add(r.stats.match_recomputed);
      obs_jobs_done.add(1);
      sink(i, r);
    } catch (const std::exception& e) {
      obs_jobs_done.add(1);
      sink(i, failure_result(e));
    }
  }
}

std::vector<std::string> paper_sections() {
  // Table 1 minus the three color-duplication rows (4.2.3, 4.2.4, 4.2.8),
  // which are derived from Algorithms 1, 2 and 4 rather than given directly.
  std::vector<std::string> out;
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    if (e.section == "4.2.3" || e.section == "4.2.4" || e.section == "4.2.8") continue;
    out.push_back(e.section);
  }
  return out;
}

std::vector<std::string> all_sections() {
  std::vector<std::string> out;
  for (const algorithms::TableEntry& e : algorithms::table1()) out.push_back(e.section);
  return out;
}

}  // namespace lumi::campaign
