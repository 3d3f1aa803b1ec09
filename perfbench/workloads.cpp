#include "perfbench/workloads.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "src/algorithms/algorithms.hpp"
#include "src/algorithms/registry.hpp"
#include "src/analysis/impossibility.hpp"
#include "src/campaign/orchestrate.hpp"
#include "src/core/compiled.hpp"
#include "src/trace/report.hpp"

namespace perfbench {

namespace {

using namespace lumi::campaign;

/// Seeds per random-scheduler cell of micro_ckpt: enough jobs that one
/// 4-thread pass lasts about half a second, so several checkpoint flushes
/// land inside it.
constexpr unsigned kMicroSeeds = 256;
/// Checkpoint flush interval of micro_ckpt.
constexpr double kMicroFlushSeconds = 0.02;
/// Largest grid the model checker accepts (its visited set is 64 bits).
constexpr int kCheckerMaxNodes = 64;

/// The Theorem-1 demonstrations of bench_impossibility: the adversary wins
/// against the two-robot phi=1 Algorithm 3 and loses against the
/// three-robot Algorithm 10.
struct AdversaryDemo {
  const char* name;
  lumi::Algorithm (*make)();
  int rows;
  int cols;
  bool expect_win;
};

constexpr AdversaryDemo kDemos[] = {
    {"algorithm3", &lumi::algorithms::algorithm3, 4, 4, true},
    {"algorithm3", &lumi::algorithms::algorithm3, 4, 5, true},
    {"algorithm10", &lumi::algorithms::algorithm10, 3, 3, false},
    {"algorithm10", &lumi::algorithms::algorithm10, 3, 4, false},
};

lumi::CheckModel check_model(SchedKind kind) {
  switch (lumi::campaign::sched_synchrony(kind)) {
    case lumi::Synchrony::Fsync: return lumi::CheckModel::Fsync;
    case lumi::Synchrony::Ssync: return lumi::CheckModel::Ssync;
    case lumi::Synchrony::Async: return lumi::CheckModel::Async;
  }
  throw std::invalid_argument("check_model: bad scheduler");
}

const char* to_string(lumi::CheckModel model) {
  switch (model) {
    case lumi::CheckModel::Fsync: return "FSYNC";
    case lumi::CheckModel::Ssync: return "SSYNC";
    case lumi::CheckModel::Async: return "ASYNC";
  }
  return "?";
}

/// Keeps the cells (and their jobs) whose grid has at most `max_nodes` nodes.
Expansion keep_small_cells(const Expansion& in, int max_nodes) {
  Expansion out;
  out.options = in.options;
  std::vector<std::size_t> remap(in.cells.size(), in.cells.size());
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    if (in.cells[i].rows * in.cells[i].cols > max_nodes) continue;
    remap[i] = out.cells.size();
    out.cells.push_back(in.cells[i]);
  }
  for (const Job& job : in.jobs) {
    if (remap[job.cell] != in.cells.size()) out.jobs.push_back({remap[job.cell], job.seed});
  }
  return out;
}

/// One model_check unit per distinct (section, grid, model) among the cells
/// the checker can take, in expansion order.
std::vector<CheckUnit> check_units(const std::vector<Cell>& cells, int max_nodes) {
  std::vector<CheckUnit> out;
  std::set<std::tuple<std::string, int, int, int>> seen;
  for (const Cell& c : cells) {
    if (c.rows * c.cols > max_nodes || c.topo != "grid") continue;
    const lumi::CheckModel model = check_model(c.sched);
    if (seen.insert({c.section, c.rows, c.cols, static_cast<int>(model)}).second) {
      out.push_back({c.section, c.rows, c.cols, model});
    }
  }
  return out;
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(i, values.size() - 1)];
}

std::vector<unsigned> campaign_seeds(unsigned long long seed, unsigned k) {
  std::vector<unsigned> out;
  const unsigned base = static_cast<unsigned>(seed * k);
  for (unsigned i = 1; i <= k; ++i) out.push_back(base + i);
  return out;
}

bool known_workload(const std::string& name) {
  return name == "sweep_large" || name == "micro_ckpt" || name == "certify_table1";
}

Workload make_workload(const std::string& name, unsigned long long seed, bool toy,
                       const std::string& work_dir) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.toy = toy;
  w.work_dir = work_dir;
  w.checkpoint_path = work_dir + "/" + name + "-" + std::to_string(getpid()) + ".ckpt";
  Matrix& m = w.matrix;
  m.schedulers.assign(std::begin(kAllSchedKinds), std::end(kAllSchedKinds));
  int max_nodes = kCheckerMaxNodes;
  if (name == "sweep_large") {
    w.driver = Driver::Campaign;
    m.sections = paper_sections();
    m.rows = m.cols = toy ? IntRange{4, 16, 12} : IntRange{4, 64, 12};
    m.seeds = campaign_seeds(seed, toy ? 1 : 3);
  } else if (name == "micro_ckpt") {
    w.driver = Driver::Orchestrated;
    m.sections = all_sections();
    m.rows = m.cols = toy ? IntRange{3, 4, 1} : IntRange{3, 6, 1};
    m.seeds = campaign_seeds(seed, toy ? 2 : kMicroSeeds);
    w.flush_seconds = kMicroFlushSeconds;
  } else if (name == "certify_table1") {
    w.driver = Driver::Certify;
    m.sections = all_sections();
    if (toy) max_nodes = 16;
    m.rows = m.cols = IntRange{2, max_nodes / 2, 1};
    // One deterministic scheduler per synchrony model: expand keeps exactly
    // the models each entry claims (compatible()), and the seed is unused.
    m.schedulers = {SchedKind::Fsync, SchedKind::SsyncRoundRobin, SchedKind::AsyncCentralized};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.expansion = expand(m);
  if (w.driver == Driver::Certify) w.expansion = keep_small_cells(w.expansion, max_nodes);
  w.checks = check_units(w.expansion.cells, max_nodes);
  return w;
}

std::map<std::string, lumi::Algorithm> workload_algorithms(const Workload& w) {
  std::map<std::string, lumi::Algorithm> out;
  for (const std::string& s : w.matrix.sections) out.emplace(s, lumi::algorithms::entry(s).make());
  return out;
}

void warm_compilations(const Workload& w) {
  for (const auto& [section, alg] : workload_algorithms(w)) lumi::CompiledAlgorithm::get(alg);
}

std::size_t failed_jobs(const CampaignSummary& summary) {
  std::size_t bad = 0;
  for (const CellSummary& c : summary.cells) {
    const CellAccumulator& a = c.acc;
    bad += static_cast<std::size_t>(
        std::max({a.runs - a.terminated, a.runs - a.explored_all, a.failures}));
  }
  return bad;
}

Checkpoint checkpoint_of(const Expansion& expansion, const CampaignSummary& summary) {
  Checkpoint ck = make_checkpoint(expansion);
  for (std::size_t i = 0; i < ck.cells.size(); ++i) ck.cells[i].acc = summary.cells[i].acc;
  for (const Job& job : expansion.jobs) ck.cells[job.cell].seeds_done.push_back(job.seed);
  for (CheckpointCell& c : ck.cells) {
    std::sort(c.seeds_done.begin(), c.seeds_done.end());
    c.seeds_done.erase(std::unique(c.seeds_done.begin(), c.seeds_done.end()),
                       c.seeds_done.end());
  }
  return ck;
}

PassResult run_jobs(const Workload& w, unsigned threads, std::size_t batch, bool incremental) {
  Expansion ablated;
  const Expansion* e = &w.expansion;
  if (!incremental) {
    ablated = w.expansion;
    ablated.options.incremental = false;
    e = &ablated;
  }
  PassResult p;
  p.units = e->jobs.size();
  if (w.driver == Driver::Orchestrated) {
    std::remove(w.checkpoint_path.c_str());
    OrchestratorOptions opts;
    opts.threads = threads;
    opts.checkpoint_path = w.checkpoint_path;
    opts.flush_seconds = w.flush_seconds;
    opts.batch = batch;
    const Clock::time_point t0 = Clock::now();
    OrchestratorReport r = run_orchestrated(*e, opts);
    p.wall_s = seconds_since(t0);
    p.summary = std::move(r.summary);
    p.checkpoint = std::move(r.checkpoint);
    // The final checkpoint must reload into the same report.
    bool same = false;
    try {
      const std::optional<Checkpoint> loaded = checkpoint_load(w.checkpoint_path);
      if (loaded && *loaded == p.checkpoint) {
        const CampaignSummary reloaded = checkpoint_summary(*loaded);
        same = lumi::campaign_csv(reloaded) == lumi::campaign_csv(p.summary) &&
               lumi::campaign_json(reloaded) == lumi::campaign_json(p.summary);
      }
    } catch (const std::exception&) {
      same = false;
    }
    ++p.checks;
    if (!same) p.check_failures.push_back("checkpoint reload differs from the in-memory summary");
  } else {
    const Clock::time_point t0 = Clock::now();
    p.summary = run_campaign(*e, threads, batch);
    p.wall_s = seconds_since(t0);
  }
  p.failed = failed_jobs(p.summary);
  p.report = lumi::campaign_csv(p.summary);
  return p;
}

PassResult run_certification(const Workload& w) {
  const std::map<std::string, lumi::Algorithm> algs = workload_algorithms(w);
  std::vector<lumi::Algorithm> demo_algs;
  for (const AdversaryDemo& d : kDemos) demo_algs.push_back(d.make());

  PassResult p;
  std::vector<std::optional<lumi::CheckResult>> checks(w.checks.size());
  std::vector<std::optional<lumi::AdversaryResult>> demos(std::size(kDemos));
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < w.checks.size(); ++i) {
    const CheckUnit& u = w.checks[i];
    try {
      checks[i] = lumi::model_check(algs.at(u.section), lumi::Grid(u.rows, u.cols), u.model);
    } catch (const std::exception&) {
      checks[i].reset();
    }
  }
  const Clock::time_point t1 = Clock::now();
  for (std::size_t i = 0; i < std::size(kDemos); ++i) {
    try {
      demos[i] =
          lumi::find_ssync_adversary(demo_algs[i], lumi::Grid(kDemos[i].rows, kDemos[i].cols));
    } catch (const std::exception&) {
      demos[i].reset();
    }
  }
  p.wall_s = seconds_since(t0);
  p.check_s = std::chrono::duration<double>(t1 - t0).count();
  p.adversary_s = seconds_since(t1);
  p.units = checks.size() + demos.size();

  for (std::size_t i = 0; i < checks.size(); ++i) {
    const CheckUnit& u = w.checks[i];
    const bool ok = checks[i] && checks[i]->ok;
    if (!ok) ++p.failed;
    if (checks[i]) {
      p.check_states += checks[i]->states;
      p.check_transitions += checks[i]->transitions;
      p.check_max_states = std::max(p.check_max_states, checks[i]->states);
    }
    p.report += u.section + " " + std::to_string(u.rows) + "x" + std::to_string(u.cols) + " " +
                to_string(u.model) + " " +
                (checks[i] ? std::to_string(checks[i]->states) + " " +
                                 std::to_string(checks[i]->transitions)
                           : std::string("exception")) +
                (ok ? " ok\n" : " FAIL\n");
  }
  for (std::size_t i = 0; i < demos.size(); ++i) {
    const AdversaryDemo& d = kDemos[i];
    const bool ok = demos[i] && demos[i]->adversary_wins == d.expect_win;
    if (!ok) ++p.failed;
    if (demos[i]) p.adversary_states += demos[i]->states;
    p.report += std::string("adversary ") + d.name + " " + std::to_string(d.rows) + "x" +
                std::to_string(d.cols) + " " +
                (demos[i] ? (demos[i]->adversary_wins ? "wins " : "loses ") +
                                std::to_string(demos[i]->states)
                          : std::string("exception")) +
                (ok ? " ok\n" : " FAIL\n");
  }
  return p;
}

void Tally::add(const PassResult& p, const std::string& what) {
  attempted += p.units + p.checks;
  failed += p.failed + p.check_failures.size();
  if (p.failed != 0) {
    failures.push_back(what + ": " + std::to_string(p.failed) + " of " +
                       std::to_string(p.units) + " units not ok");
  }
  for (const std::string& f : p.check_failures) failures.push_back(what + ": " + f);
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

PassResult run_pass(const Workload& w, unsigned threads) {
  return w.driver == Driver::Certify ? run_certification(w) : run_jobs(w, threads);
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
