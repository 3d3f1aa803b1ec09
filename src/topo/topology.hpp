// Topology: the world a configuration lives on, generalizing the paper's
// plain finite m x n grid (src/core/grid.hpp forwards here; `Grid` is an
// alias of this class, so the seed grid path *is* the Topology path).
//
// One concrete value class covers every family — no virtual dispatch on the
// snapshot hot path.  A topology is a rows x cols bounding box plus two wrap
// flags and an optional wall mask:
//
//   grid          no wrap, no walls          (the paper's G = (V, E))
//   ring          cols wrap                  (the classic ring when rows == 1;
//                                             an east-west cylinder otherwise)
//   torus         rows and cols wrap         (no border: robots never see a
//                                             wall, as in unbounded-space work)
//   holes         rectangular interior hole  (walls inside the bounding box)
//   obstacles     seeded random wall mask    (validated connected, so every
//                                             generated world is explorable)
//
// Every query the simulator needs funnels through canonical_index():
// wrap-or-reject per axis, then the wall mask.  For a plain grid that is
// exactly the seed Grid's bounds check + row-major index, which is how the
// plain-grid-through-Topology path reproduces the seed path decision for
// decision (pinned by the golden-trace and Table-1 test suites).
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/geometry.hpp"

namespace lumi {

class Topology {
 public:
  enum class Family : std::uint8_t { Grid, Ring, Torus, Holes, Obstacles };

  /// Plain finite grid — the seed Grid constructor, byte-for-byte semantics.
  Topology(int rows, int cols) : Topology(Family::Grid, rows, cols, false, false, {}) {}

  static Topology grid(int rows, int cols) { return Topology(rows, cols); }
  /// East-west wraparound; rows == 1 is the literature's ring of `cols`
  /// nodes (each node has exactly two neighbors).
  static Topology ring(int rows, int cols);
  /// Convenience: the classic ring of `length` nodes.
  static Topology ring(int length) { return ring(1, length); }
  /// Wraparound on both axes: a borderless world (no walls anywhere).
  static Topology torus(int rows, int cols);
  /// Grid with a rectangular hole of walls at [hole_row, hole_row+hole_rows)
  /// x [hole_col, hole_col+hole_cols).  The hole must be strictly interior
  /// (a full border ring of nodes remains), which keeps the free nodes
  /// connected.  Throws std::invalid_argument otherwise.
  static Topology with_hole(int rows, int cols, int hole_row, int hole_col, int hole_rows,
                            int hole_cols);
  /// Centered auto-sized hole (~ rows/3 x cols/3); requires rows, cols >= 3.
  static Topology with_hole(int rows, int cols);
  /// Seeded random obstacle mask: `percent`% of the eligible cells (those
  /// outside the northwest anchor region where Table-1 initial placements
  /// live) become walls.  Deterministic in (rows, cols, percent, seed) across
  /// platforms (in-repo Fisher-Yates, not std::shuffle).  Candidate masks
  /// that disconnect the free nodes are rejected and retried with a derived
  /// seed; throws std::runtime_error when no connected mask is found.
  static Topology obstacles(int rows, int cols, int percent, unsigned seed);

  // --- seed Grid surface (unchanged semantics on the plain family) ---------

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  /// Bounding-box node count (including wall cells; occupancy arrays and
  /// visited bitmaps are indexed over this range).
  int num_nodes() const { return rows_ * cols_; }

  /// True when `v` designates a node of the world: inside the bounding box
  /// (or wrappable onto it) and not a wall.
  bool contains(Vec v) const { return canonical_index(v) >= 0; }

  /// Row-major node index; precondition: `v` canonical (contains(v) and
  /// inside the bounding box).
  int index(Vec v) const { return v.row * cols_ + v.col; }
  Vec node(int index) const { return {index / cols_, index % cols_}; }

  /// Degree-based classification used in Theorem 1's proof (wrapped axes
  /// have no border, so e.g. a torus has no end nodes).
  bool is_end_node(Vec v) const {
    int degree = 0;
    for (Dir d : kAllDirs) degree += step(v, d).has_value() ? 1 : 0;
    return degree < 4;
  }
  /// Inner node: at least 3 away from every border of a non-wrapped axis
  /// (bounding-box criterion; interior walls are not considered).
  bool is_inner_node(Vec v) const {
    const bool row_ok = wrap_rows_ || (v.row >= 3 && v.row < rows_ - 3);
    const bool col_ok = wrap_cols_ || (v.col >= 3 && v.col < cols_ - 3);
    return row_ok && col_ok;
  }

  friend bool operator==(const Topology&, const Topology&) = default;

  /// "4x6" for a plain grid (seed spelling, pinned by error-message tests);
  /// "4x6/torus", "1x8/ring", "8x8/obstacles:15:7" otherwise.
  std::string to_string() const {
    return std::to_string(rows_) + "x" + std::to_string(cols_) +
           (family_ == Family::Grid ? "" : "/" + spec_);
  }

  // --- topology surface ----------------------------------------------------

  Family family() const { return family_; }
  /// True for the no-wrap no-wall family: membership is the seed bounds
  /// check.  Snapshot loops branch on this once and use the unchecked plain
  /// path per cell.
  bool plain() const { return plain_; }
  /// Canonical machine-readable spec ("grid", "ring", "torus", "holes:HxW",
  /// "obstacles:P:S"); make_topology(spec(), rows(), cols()) reproduces this
  /// topology exactly.
  const std::string& spec() const { return spec_; }
  bool wrap_rows() const { return wrap_rows_; }
  bool wrap_cols() const { return wrap_cols_; }
  bool has_walls() const { return !wall_.empty(); }
  /// Number of real (non-wall) nodes — the coverage target for exploration.
  int reachable_nodes() const { return reachable_; }

  /// True when bounding-box index `idx` designates a real node (not a wall).
  bool is_node_index(int idx) const { return wall_.empty() || wall_[static_cast<std::size_t>(idx)] == 0; }

  /// The workhorse: canonical bounding-box index of the node `v` designates,
  /// or -1 when `v` is off-world (outside a non-wrapped axis) or a wall.
  /// The plain family takes the seed Grid's exact bounds-check + row-major
  /// index behind one precomputed flag — the snapshot hot path must not pay
  /// for wraparound or wall masks it doesn't have (perfbench's
  /// core.snapshot_ns measures that path).
  int canonical_index(Vec v) const {
    if (plain_) {
      return v.row >= 0 && v.row < rows_ && v.col >= 0 && v.col < cols_
                 ? v.row * cols_ + v.col
                 : -1;
    }
    return canonical_index_general(v);
  }

  /// Canonical coordinates of the node `v` designates; precondition
  /// contains(v).
  Vec canonicalize(Vec v) const { return node(canonical_index(v)); }

  /// The neighbor one edge away in direction `d`, in canonical coordinates;
  /// std::nullopt when that edge leads off-world or into a wall.
  std::optional<Vec> step(Vec from, Dir d) const {
    const int idx = canonical_index(from + dir_vec(d));
    if (idx < 0) return std::nullopt;
    return node(idx);
  }

  /// True when `from` and `to` designate nodes joined by an edge (robots
  /// move along edges; on wrapped axes the seam edge counts, and an edge
  /// never leads into a wall).
  bool are_adjacent(Vec from, Vec to) const {
    if (plain_) return manhattan(from, to) == 1;  // seed fast path
    const int ti = canonical_index(to);  // also rejects walls on holed worlds
    if (ti < 0) return false;
    for (Dir d : kAllDirs) {
      if (canonical_index(from + dir_vec(d)) == ti) return true;
    }
    return false;
  }

 private:
  Topology(Family family, int rows, int cols, bool wrap_rows, bool wrap_cols,
           std::vector<std::uint8_t> wall);

  /// Wrap-and-mask path for non-plain families; out of line to keep the
  /// inlined plain fast path small.
  int canonical_index_general(Vec v) const;

  Family family_;
  int rows_;
  int cols_;
  bool wrap_rows_;
  bool wrap_cols_;
  bool plain_;  ///< no wraps and no walls: canonical_index == seed bounds+index
  /// Bounding-box-indexed wall mask; empty when the family has no walls.
  std::vector<std::uint8_t> wall_;
  int reachable_;
  std::string spec_;
};

std::string to_string(Topology::Family family);

/// True when every free node of `wall` (a rows x cols mask, 1 = wall) is
/// reachable from every other along 4-neighbor edges (wrapping per the
/// flags), and at least one free node exists.  The validator the obstacle
/// generator runs on every candidate mask before accepting it.
bool mask_connected(int rows, int cols, const std::vector<std::uint8_t>& wall, bool wrap_rows,
                    bool wrap_cols);

/// Parses a topology spec — "grid", "ring", "torus", "holes",
/// "holes:HxW[@RxC]", "obstacles:P:S" — against the given bounding box.
/// Throws std::invalid_argument on an unknown or malformed spec, or when
/// the family cannot be built at these dimensions.
Topology make_topology(const std::string& spec, int rows, int cols);

/// True when `spec` is grammatically valid, independent of dimensions (the
/// CLI's typo check: a well-formed spec that doesn't fit some cell is a
/// skip at expansion, not an input error).
bool topology_spec_parses(const std::string& spec);

/// True when `spec` parses and builds at the given dimensions.
bool topology_spec_ok(const std::string& spec, int rows, int cols);

/// The spellings accepted by make_topology, for CLI help text.
const char* topology_spec_grammar();

}  // namespace lumi
