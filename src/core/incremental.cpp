#include "src/core/incremental.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>

namespace lumi {

namespace {

/// True when a robot at `at` sees node `v`: their L1 distance is within phi,
/// each axis taken the shorter way round where the topology wraps it.  The
/// view kernel is the whole L1 ball (walls fill cells, they hide none), and
/// the axes wrap independently, so this is exactly "v + o designates `at`
/// for some kernel offset o".
bool sees(const Topology& topo, int phi, Vec at, Vec v) {
  int rows = std::abs(at.row - v.row);
  int cols = std::abs(at.col - v.col);
  if (topo.wrap_rows()) rows = std::min(rows, topo.rows() - rows);
  if (topo.wrap_cols()) cols = std::min(cols, topo.cols() - cols);
  return rows + cols <= phi;
}

}  // namespace

DirtyTracker::DirtyTracker(std::shared_ptr<const CompiledAlgorithm> alg,
                           const Configuration& config)
    : alg_(std::move(alg)),
      config_(&config),
      actions_(static_cast<std::size_t>(config.num_robots())),
      last_(config.robots().begin(), config.robots().end()) {
  for (int r = 0; r < config.num_robots(); ++r) recompute(r);
  counters_.recomputed += config.num_robots();
}

void DirtyTracker::recompute(int robot) {
  take_snapshot_into(*config_, robot, alg_->phi(), scratch_);
  enabled_actions_into(*alg_, scratch_, actions_[static_cast<std::size_t>(robot)]);
}

void DirtyTracker::refresh() {
  const std::span<const Robot> robots = config_->robots();
  const int n = static_cast<int>(robots.size());
  // The changed nodes: the old and the new node of every robot that moved
  // or recolored since the last refresh.
  changed_.clear();
  for (std::size_t r = 0; r < robots.size(); ++r) {
    Robot& was = last_[r];
    if (was == robots[r]) continue;
    changed_.push_back(was.pos);
    if (was.pos != robots[r].pos) changed_.push_back(robots[r].pos);
    was = robots[r];
  }
  long recomputed = 0;
  if (!changed_.empty()) {
    const Topology& topo = config_->topology();
    const int phi = alg_->phi();
    for (int r = 0; r < n; ++r) {
      const Vec at = robots[static_cast<std::size_t>(r)].pos;
      if (std::any_of(changed_.begin(), changed_.end(),
                      [&](Vec v) { return sees(topo, phi, at, v); })) {
        recompute(r);
        ++recomputed;
      }
    }
  }
  counters_.recomputed += recomputed;
  counters_.reused += n - recomputed;
}

}  // namespace lumi
