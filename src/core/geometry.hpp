// Grid geometry: offsets, cardinal directions and the dihedral symmetry
// group D4 used to model disoriented robots.
//
// Coordinates follow the paper's v_{i,j} convention: `row` (i) grows toward
// global South and `col` (j) grows toward global East.  Robots never see
// these global directions; symmetries below describe the possible local
// frames a robot's snapshot may be expressed in.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace lumi {

/// Offset (or absolute position) on the grid.
struct Vec {
  int row = 0;
  int col = 0;

  friend constexpr Vec operator+(Vec a, Vec b) { return {a.row + b.row, a.col + b.col}; }
  friend constexpr Vec operator-(Vec a, Vec b) { return {a.row - b.row, a.col - b.col}; }
  friend constexpr bool operator==(Vec, Vec) = default;
  /// Lexicographic order (row-major) used for canonical listings.
  friend constexpr bool operator<(Vec a, Vec b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  }
};

/// Manhattan (hop) distance between grid nodes.
constexpr int manhattan(Vec a, Vec b) {
  const int dr = a.row - b.row;
  const int dc = a.col - b.col;
  return (dr < 0 ? -dr : dr) + (dc < 0 ? -dc : dc);
}

/// Cardinal direction in some frame (global or a robot's local frame).
enum class Dir : std::uint8_t { North = 0, East = 1, South = 2, West = 3 };

constexpr std::array<Dir, 4> kAllDirs = {Dir::North, Dir::East, Dir::South, Dir::West};

/// Unit offset for a direction (North decreases the row index).
constexpr Vec dir_vec(Dir d) {
  switch (d) {
    case Dir::North: return {-1, 0};
    case Dir::East: return {0, 1};
    case Dir::South: return {1, 0};
    case Dir::West: return {0, -1};
  }
  return {0, 0};
}

std::string to_string(Dir d);

/// Element of the dihedral group D4 acting on offsets.
///
/// `apply(g, v)` first mirrors (col -> -col) when `g.mirror` is set, then
/// rotates clockwise by `g.rot` quarter turns.  Robots with common chirality
/// may observe their view in any of the 4 rotations; without chirality all 8
/// elements are possible.
struct Sym {
  std::uint8_t rot = 0;     ///< quarter turns clockwise, 0..3
  bool mirror = false;      ///< east-west flip applied before rotating

  friend constexpr bool operator==(Sym, Sym) = default;
};

constexpr Vec rotate_cw(Vec v, int quarter_turns) {
  for (int t = 0; t < (quarter_turns & 3); ++t) v = Vec{v.col, -v.row};
  return v;
}

constexpr Vec apply(Sym g, Vec v) {
  if (g.mirror) v.col = -v.col;
  return rotate_cw(v, g.rot);
}

constexpr Dir apply(Sym g, Dir d) {
  const Vec v = apply(g, dir_vec(d));
  for (Dir cand : kAllDirs) {
    if (dir_vec(cand) == v) return cand;
  }
  return d;  // unreachable: unit vectors map to unit vectors
}

/// The four orientation-preserving symmetries (common chirality).
std::span<const Sym> rotations();
/// All eight symmetries (no common chirality).
std::span<const Sym> all_symmetries();

}  // namespace lumi
