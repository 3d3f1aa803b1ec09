#include "src/core/incremental.hpp"

#include <algorithm>
#include <cstdlib>

namespace lumi {

DirtyTracker::DirtyTracker(std::shared_ptr<const CompiledAlgorithm> alg, Configuration& config)
    : alg_(std::move(alg)),
      config_(&config),
      actions_(static_cast<std::size_t>(config.num_robots())),
      positions_(static_cast<std::size_t>(config.num_robots())),
      head_(static_cast<std::size_t>(config.grid().num_nodes()), -1),
      next_(static_cast<std::size_t>(config.num_robots()), -1),
      dirty_(static_cast<std::size_t>(config.num_robots()), 0) {
  config.set_journal(true);
  for (int r = 0; r < config.num_robots(); ++r) {
    const Vec pos = config.robot(r).pos;
    positions_[static_cast<std::size_t>(r)] = pos;
    list_insert(config.grid().index(pos), r);
    recompute(r);
  }
  counters_.recomputed += config.num_robots();
}

DirtyTracker::~DirtyTracker() { config_->set_journal(false); }

void DirtyTracker::list_remove(int node, int robot) {
  int* link = &head_[static_cast<std::size_t>(node)];
  while (*link != robot) link = &next_[static_cast<std::size_t>(*link)];
  *link = next_[static_cast<std::size_t>(robot)];
}

void DirtyTracker::recompute(int robot) {
  take_snapshot_into(*config_, robot, alg_->phi(), scratch_);
  enabled_actions_into(*alg_, scratch_, actions_[static_cast<std::size_t>(robot)]);
}

void DirtyTracker::refresh() {
  const int n = config_->num_robots();
  const std::span<const int> journal = config_->journal();
  if (journal.empty()) {
    counters_.reused += n;
    return;
  }
  const Topology& grid = config_->topology();
  const ViewKernel& kernel = ViewKernel::get(alg_->phi());
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  int marked = 0;
  if (grid.plain()) {
    // No wraparound: robot r (at its last-refresh position — the identity
    // the reverse map also uses) sees journaled node v iff their L1
    // distance is within phi.  A direct robot-against-journal sweep beats
    // expanding each node's kernel footprint through canonical_index when
    // the robot count is a handful, which it is for every Table-1
    // algorithm.  Same dirty set, same counters.
    const int phi = alg_->phi();
    for (const int node : journal) {
      if (marked == n) break;  // everyone is dirty; further marking is a no-op
      const Vec v = grid.node(node);
      for (int r = 0; r < n; ++r) {
        if (dirty_[static_cast<std::size_t>(r)] != 0) continue;
        const Vec p = positions_[static_cast<std::size_t>(r)];
        if (std::abs(p.row - v.row) + std::abs(p.col - v.col) <= phi) {
          dirty_[static_cast<std::size_t>(r)] = 1;
          ++marked;
        }
      }
    }
  } else {
    for (const int node : journal) {
      if (marked == n) break;  // everyone is dirty; further marking is a no-op
      const Vec v = grid.node(node);
      for (const Vec o : kernel.offsets()) {
        // The kernel is symmetric, so robot r sees node v iff r sits on the
        // node v + o designates for some offset o — including across a
        // wraparound seam, which canonical_index folds in (a node reachable
        // through several offsets is just marked twice).
        const int pi = grid.canonical_index(v + o);
        if (pi < 0) continue;
        for (int r = head_[static_cast<std::size_t>(pi)]; r >= 0;
             r = next_[static_cast<std::size_t>(r)]) {
          if (dirty_[static_cast<std::size_t>(r)] == 0) {
            dirty_[static_cast<std::size_t>(r)] = 1;
            ++marked;
          }
        }
      }
    }
  }
  long recomputed = 0;
  for (int r = 0; r < n; ++r) {
    if (!dirty_[static_cast<std::size_t>(r)]) continue;
    // A robot that moved is always dirty (its old node is in the journal and
    // still maps to it here), so only dirty robots can need a map update.
    const Vec now = config_->robot(r).pos;
    Vec& cached = positions_[static_cast<std::size_t>(r)];
    if (!(now == cached)) {
      list_remove(grid.index(cached), r);
      list_insert(grid.index(now), r);
      cached = now;
    }
    recompute(r);
    ++recomputed;
  }
  counters_.recomputed += recomputed;
  counters_.reused += n - recomputed;
  config_->clear_journal();
}

bool DirtyTracker::any_enabled() const {
  for (const std::vector<Action>& a : actions_) {
    if (!a.empty()) return true;
  }
  return false;
}

}  // namespace lumi
