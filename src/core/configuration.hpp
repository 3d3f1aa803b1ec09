// Configurations: positions and light colors of all robots on a topology
// (plain grid, ring, torus, holed/obstacle grid — src/topo/topology.hpp).
//
// Robots are anonymous in the model, but the simulator tracks them by index
// so that the ASYNC engine can attribute pending phases.  Canonical listing /
// hashing treat robots as interchangeable.
//
// The configuration keeps a bounding-box-indexed occupancy array
// incrementally up to date in move_robot/set_color, so cell() and
// multiset_at() — the snapshot hot path — are O(1) lookups instead of
// O(robots) scans.  Membership and wraparound funnel through
// Topology::canonical_index, so a view across a torus seam or into an
// obstacle wall needs no special casing here.
//
// An opt-in change journal records the node indices whose content changed
// (a recolor touches one node, a move two); the incremental match layer
// (DirtyTracker) drains it to decide which robots' neighborhoods must be
// re-matched between instants.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/color.hpp"
#include "src/core/grid.hpp"

namespace lumi {

struct Robot {
  Vec pos;
  Color color;

  friend bool operator==(const Robot&, const Robot&) = default;
};

/// Wall-or-multiset content of one grid cell as seen in a view.
struct CellContent {
  bool wall = false;
  ColorMultiset robots;

  friend bool operator==(const CellContent&, const CellContent&) = default;
};

class Configuration {
 public:
  /// Robots must sit on real nodes; on wrapped topologies out-of-box
  /// placements are canonicalized, on bounded ones they throw (the seed
  /// Grid behavior).
  Configuration(Topology topo, std::vector<Robot> robots);

  const Topology& topology() const { return grid_; }
  /// Historical spelling; the world has been a Topology since the topology
  /// subsystem landed (plain grids are one family of it).
  const Topology& grid() const { return grid_; }
  int num_robots() const { return static_cast<int>(robots_.size()); }
  const Robot& robot(int i) const { return robots_.at(static_cast<std::size_t>(i)); }
  std::span<const Robot> robots() const { return robots_; }

  void set_color(int i, Color c) {
    Robot& r = robots_.at(static_cast<std::size_t>(i));
    if (c == r.color) return;
    const int node_index = grid_.index(r.pos);
    ColorMultiset& node = occupancy_[static_cast<std::size_t>(node_index)];
    // Add before remove: add can throw (per-color counter overflow) and must
    // do so before any state changed; removing a present color cannot throw.
    node.add(c);
    node.remove(r.color);
    r.color = c;
    if (journal_enabled_) journal_.push_back(node_index);
  }
  /// Moves robot `i` to `to`; throws std::logic_error if `to` is off-world
  /// (outside a bounded axis, or a wall) or not joined to the robot's
  /// current node by an edge (robots move along edges; wraparound seam
  /// edges count).  The stored position is canonical.
  void move_robot(int i, Vec to);

  /// Engine fast path: moves robot `i` along an edge Topology::step already
  /// validated.  Precondition: `to` is the canonical neighbor step() just
  /// returned for the robot's current position — anything else corrupts the
  /// occupancy table.  Skips move_robot's re-validation (a second
  /// canonical_index walk, the adjacency probe, and a second node()
  /// decode — a measurable share of every micro-run instant, paid per
  /// applied move); the occupancy and journal updates are identical.
  void move_robot_stepped(int i, Vec to) {
    Robot& r = robots_[static_cast<std::size_t>(i)];
    const int to_index = grid_.index(to);
    const int from_index = grid_.index(r.pos);
    // Add before remove: add can throw (destination stack overflow) and must
    // do so before any state changed; removing a present color cannot throw.
    occupancy_[static_cast<std::size_t>(to_index)].add(r.color);
    occupancy_[static_cast<std::size_t>(from_index)].remove(r.color);
    r.pos = to;
    if (journal_enabled_) {
      journal_.push_back(from_index);
      journal_.push_back(to_index);
    }
  }

  /// Multiset of colors on the node `v` designates (empty when unoccupied).
  const ColorMultiset& multiset_at(Vec v) const {
    static constexpr ColorMultiset kEmpty;
    const int idx = grid_.canonical_index(v);
    if (idx < 0) return kEmpty;
    return occupancy_[static_cast<std::size_t>(idx)];
  }
  /// Cell content; wall = true for off-world or wall-masked v.
  CellContent cell(Vec v) const {
    const int idx = grid_.canonical_index(v);
    if (idx < 0) return CellContent{.wall = true, .robots = {}};
    return CellContent{.wall = false, .robots = occupancy_[static_cast<std::size_t>(idx)]};
  }
  /// Seed-grid cell lookup: bounds check + row-major occupancy, no topology
  /// dispatch.  Precondition: topology().plain().  The snapshot loop — the
  /// innermost code of the simulator — branches on plain() once and calls
  /// this per cell, so plain grids pay nothing for the topology abstraction
  /// (perfbench's core.snapshot_ns measures that loop).
  CellContent cell_plain(Vec v) const {
    if (v.row < 0 || v.row >= grid_.rows() || v.col < 0 || v.col >= grid_.cols()) {
      return CellContent{.wall = true, .robots = {}};
    }
    return CellContent{.wall = false,
                       .robots = occupancy_[static_cast<std::size_t>(grid_.index(v))]};
  }
  /// The node-indexed occupancy table itself (row-major on plain grids).
  /// The snapshot fill reads it through a local pointer so its stores into
  /// the snapshot cannot force per-cell reloads of the table address.
  std::span<const ColorMultiset> occupancy() const { return occupancy_; }
  bool occupied(Vec v) const { return !multiset_at(v).empty(); }

  /// Robots sorted by (pos, color): configurations that are equal as
  /// multisets of (position, color) pairs produce identical listings.
  std::vector<Robot> canonical_robots() const;
  std::uint64_t canonical_hash() const;
  /// True when both configurations describe the same anonymous placement.
  bool same_placement(const Configuration& other) const;

  /// Paper-style rendering: "{(0,0):{G}, (0,1):{W}}" sorted by node.
  std::string to_string() const;

  /// Enables (or disables) the change journal, clearing any recorded
  /// entries.  While enabled, every set_color/move_robot appends the node
  /// indices it touched (duplicates possible; readers deduplicate).
  void set_journal(bool enabled) {
    journal_enabled_ = enabled;
    journal_.clear();
  }
  bool journal_enabled() const { return journal_enabled_; }
  /// Node indices whose occupancy/color content changed since the last
  /// clear_journal(); empty when journaling is disabled.
  std::span<const int> journal() const { return journal_; }
  void clear_journal() { journal_.clear(); }

 private:
  Topology grid_;
  std::vector<Robot> robots_;
  /// Node-indexed color multisets, maintained incrementally.
  std::vector<ColorMultiset> occupancy_;
  bool journal_enabled_ = false;
  std::vector<int> journal_;
};

/// Convenience: builds a configuration from (node, colors...) placements.
Configuration make_configuration(
    Topology topo, const std::vector<std::pair<Vec, std::vector<Color>>>& placements);

}  // namespace lumi
