// Incremental dirty-tracking match layer on top of the compiled matcher.
//
// The paper's algorithms move at most a handful of robots per instant, so
// between instants most robots observe an unchanged neighborhood and their
// match verdict — including the (rule, sym) witness — cannot have changed.
// The tracker drains the Configuration's change journal, maps each changed
// node to the robots whose ViewKernel footprint covers it (the kernel is
// symmetric, so robot r sees node d iff r sits on d + o for some kernel
// offset o), and re-runs the compiled matcher only for those dirty robots.
// Clean robots reuse the cached verdict verbatim, which keeps the engines'
// per-instant cost proportional to the activity, not the robot count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/compiled.hpp"
#include "src/core/matching.hpp"

namespace lumi {

class DirtyTracker {
 public:
  /// How many per-robot verdicts each refresh() served from cache vs.
  /// re-matched (the incremental-vs-recompute ratio the benches report).
  struct Counters {
    long reused = 0;
    long recomputed = 0;
  };

  /// Attaches to `config` — enabling its change journal — and computes the
  /// initial verdict of every robot.  The configuration must outlive the
  /// tracker, stay at the same address, and only be mutated through
  /// set_color/move_robot while attached (so every change is journaled).
  DirtyTracker(std::shared_ptr<const CompiledAlgorithm> alg, Configuration& config);
  ~DirtyTracker();

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// Brings every cached verdict up to date with the configuration by
  /// re-matching exactly the robots whose view covers a journaled node,
  /// then clears the journal.  All snapshots of one refresh share a single
  /// inline buffer.
  void refresh();

  /// Distinct enabled behaviors of robot `i`, identical (order, witnesses)
  /// to enabled_actions on a fresh snapshot.  Valid until the next mutation.
  const std::vector<Action>& actions(int i) const {
    return actions_[static_cast<std::size_t>(i)];
  }
  bool enabled(int i) const { return !actions(i).empty(); }
  /// The full per-robot verdict table (the sync schedulers' input shape).
  const std::vector<std::vector<Action>>& all_actions() const { return actions_; }
  bool any_enabled() const;

  const Counters& counters() const { return counters_; }

 private:
  void recompute(int robot);

  void list_insert(int node, int robot) {
    next_[static_cast<std::size_t>(robot)] = head_[static_cast<std::size_t>(node)];
    head_[static_cast<std::size_t>(node)] = robot;
  }
  void list_remove(int node, int robot);

  std::shared_ptr<const CompiledAlgorithm> alg_;
  Configuration* config_;
  std::vector<std::vector<Action>> actions_;  ///< cached verdict per robot
  std::vector<Vec> positions_;                ///< robot positions at last refresh
  /// Node -> robots-there reverse map (per positions_) as intrusive singly
  /// linked lists: head_[node] is the first robot on the node (-1 = none),
  /// next_[robot] the next one.  Allocation-free to build and update.
  std::vector<int> head_;
  std::vector<int> next_;
  std::vector<std::uint8_t> dirty_;  ///< per-refresh scratch
  Snapshot scratch_;                 ///< shared inline snapshot buffer
  Counters counters_;
};

}  // namespace lumi
