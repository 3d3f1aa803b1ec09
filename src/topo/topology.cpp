#include "src/topo/topology.hpp"

#include <algorithm>
#include <limits>

#include "src/core/rng.hpp"
#include "src/core/text.hpp"

namespace lumi {

namespace {

/// Node indices are int, so a box holds at most INT_MAX nodes.  Callers check
/// before any per-node allocation, which would be gigabytes for such a box.
void check_dimensions(int rows, int cols) {
  if (rows < 1 || cols < 1) throw std::invalid_argument("Grid dimensions must be positive");
  if (static_cast<long long>(rows) * cols > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("Grid dimensions " + std::to_string(rows) + "x" +
                                std::to_string(cols) + " exceed INT_MAX nodes");
  }
}

/// Table-1 initial placements all live in the northwest 3x3 block (positions
/// are bounded by the algorithms' min_rows x min_cols, at most 3 x 3), so
/// the obstacle generator never walls that anchor region.
constexpr int kAnchorRows = 3;
constexpr int kAnchorCols = 3;

}  // namespace

std::string to_string(Topology::Family family) {
  switch (family) {
    case Topology::Family::Grid: return "grid";
    case Topology::Family::Ring: return "ring";
    case Topology::Family::Torus: return "torus";
    case Topology::Family::Holes: return "holes";
    case Topology::Family::Obstacles: return "obstacles";
  }
  throw std::invalid_argument("to_string: bad Topology::Family");
}

Topology::Topology(Family family, int rows, int cols, bool wrap_rows, bool wrap_cols,
                   std::vector<std::uint8_t> wall)
    : family_(family),
      rows_(rows),
      cols_(cols),
      wrap_rows_(wrap_rows),
      wrap_cols_(wrap_cols),
      plain_(!wrap_rows && !wrap_cols && wall.empty()),
      wall_(std::move(wall)),
      spec_(lumi::to_string(family)) {  // qualified: the member to_string() shadows it
  check_dimensions(rows, cols);
  if (!wall_.empty() && wall_.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
    throw std::invalid_argument("Topology: wall mask size mismatch");
  }
  int walls = 0;
  for (const std::uint8_t w : wall_) walls += w ? 1 : 0;
  reachable_ = rows_ * cols_ - walls;
}

int Topology::canonical_index_general(Vec v) const {
  int r = v.row;
  int c = v.col;
  if (r < 0 || r >= rows_) {
    if (!wrap_rows_) return -1;
    r %= rows_;
    if (r < 0) r += rows_;
  }
  if (c < 0 || c >= cols_) {
    if (!wrap_cols_) return -1;
    c %= cols_;
    if (c < 0) c += cols_;
  }
  const int idx = r * cols_ + c;
  if (!wall_.empty() && wall_[static_cast<std::size_t>(idx)]) return -1;
  return idx;
}

Topology Topology::ring(int rows, int cols) {
  return Topology(Family::Ring, rows, cols, false, true, {});
}

Topology Topology::torus(int rows, int cols) {
  return Topology(Family::Torus, rows, cols, true, true, {});
}

Topology Topology::with_hole(int rows, int cols, int hole_row, int hole_col, int hole_rows,
                             int hole_cols) {
  check_dimensions(rows, cols);
  if (hole_rows < 1 || hole_cols < 1) {
    throw std::invalid_argument("with_hole: hole dimensions must be positive");
  }
  // Strictly interior: a full ring of free border nodes must remain, which
  // is what keeps the free nodes connected for any hole position.
  if (hole_row < 1 || hole_col < 1 || hole_rows > rows - 1 - hole_row ||
      hole_cols > cols - 1 - hole_col) {
    throw std::invalid_argument("with_hole: hole must be strictly interior to the " +
                                std::to_string(rows) + "x" + std::to_string(cols) + " box");
  }
  std::vector<std::uint8_t> wall(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                                 0);
  for (int r = hole_row; r < hole_row + hole_rows; ++r) {
    for (int c = hole_col; c < hole_col + hole_cols; ++c) {
      wall[static_cast<std::size_t>(r * cols + c)] = 1;
    }
  }
  Topology out(Family::Holes, rows, cols, false, false, std::move(wall));
  // Comma-free spec: topology lists are comma-separated on the CLI, so the
  // position separator reuses 'x'.
  out.spec_ = "holes:" + std::to_string(hole_rows) + "x" + std::to_string(hole_cols) + "@" +
              std::to_string(hole_row) + "x" + std::to_string(hole_col);
  return out;
}

Topology Topology::with_hole(int rows, int cols) {
  if (rows < 3 || cols < 3) {
    throw std::invalid_argument("with_hole: need at least a 3x3 box for an interior hole");
  }
  const int hole_rows = std::max(1, rows / 3);
  const int hole_cols = std::max(1, cols / 3);
  return with_hole(rows, cols, (rows - hole_rows) / 2, (cols - hole_cols) / 2, hole_rows,
                   hole_cols);
}

Topology Topology::obstacles(int rows, int cols, int percent, unsigned seed) {
  check_dimensions(rows, cols);
  if (percent < 0 || percent > 90) {
    throw std::invalid_argument("obstacles: percent must be in [0, 90]");
  }
  // Cells eligible to become walls: everything outside the NW anchor region.
  std::vector<int> eligible;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (r < kAnchorRows && c < kAnchorCols) continue;
      eligible.push_back(r * cols + c);
    }
  }
  const int target = static_cast<int>(eligible.size()) * percent / 100;
  const std::size_t size = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);

  constexpr int kMaxAttempts = 64;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // Derived per-attempt seed, so rejection and retry stay deterministic in
    // (rows, cols, percent, seed) across platforms (in-repo Fisher-Yates).
    rng::Engine rng(seed + 0x9e3779b9u * static_cast<unsigned>(attempt));
    std::vector<int> cells = eligible;
    fisher_yates(cells, rng);
    std::vector<std::uint8_t> wall(size, 0);
    for (int i = 0; i < target; ++i) wall[static_cast<std::size_t>(cells[static_cast<std::size_t>(i)])] = 1;
    if (!mask_connected(rows, cols, wall)) continue;
    Topology out(Family::Obstacles, rows, cols, false, false, std::move(wall));
    out.spec_ = "obstacles:" + std::to_string(percent) + ":" + std::to_string(seed);
    return out;
  }
  throw std::runtime_error("obstacles: no connected mask found for " + std::to_string(rows) +
                           "x" + std::to_string(cols) + " at " + std::to_string(percent) +
                           "% (seed " + std::to_string(seed) + ")");
}

bool mask_connected(int rows, int cols, const std::vector<std::uint8_t>& wall) {
  const int n = rows * cols;
  if (static_cast<int>(wall.size()) != n) return false;
  int start = -1;
  int free_count = 0;
  for (int i = 0; i < n; ++i) {
    if (wall[static_cast<std::size_t>(i)]) continue;
    ++free_count;
    if (start < 0) start = i;
  }
  if (free_count == 0) return false;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> stack = {start};
  seen[static_cast<std::size_t>(start)] = 1;
  int visited = 0;
  while (!stack.empty()) {
    const int idx = stack.back();
    stack.pop_back();
    ++visited;
    const int r = idx / cols;
    const int c = idx % cols;
    for (Dir d : kAllDirs) {
      const Vec v = Vec{r, c} + dir_vec(d);
      if (v.row < 0 || v.row >= rows || v.col < 0 || v.col >= cols) continue;
      const int ni = v.row * cols + v.col;
      if (wall[static_cast<std::size_t>(ni)] || seen[static_cast<std::size_t>(ni)]) continue;
      seen[static_cast<std::size_t>(ni)] = 1;
      stack.push_back(ni);
    }
  }
  return visited == free_count;
}

namespace {

/// Dimension-independent decoding of a spec string.
struct ParsedSpec {
  Topology::Family family = Topology::Family::Grid;
  int hole_rows = 0, hole_cols = 0;  ///< holes
  int hole_row = -1, hole_col = -1;  ///< holes; -1 = center at build time
  int percent = 0;                   ///< obstacles
  unsigned seed = 0;                 ///< obstacles
};

/// Grammar check only — no topology is built, so a spec that merely does not
/// fit some particular bounding box still parses (the CLI validates syntax
/// here; expansion decides fit per cell).  Throws std::invalid_argument.
ParsedSpec parse_spec(const std::string& spec) {
  const auto bad = [&spec](const std::string& why) -> std::invalid_argument {
    return std::invalid_argument("topology '" + spec + "': " + why);
  };
  ParsedSpec out;
  if (spec == "grid") return out;
  if (spec == "ring") {
    out.family = Topology::Family::Ring;
    return out;
  }
  if (spec == "torus") {
    out.family = Topology::Family::Torus;
    return out;
  }
  if (spec == "holes" || spec.rfind("holes:", 0) == 0) {
    out.family = Topology::Family::Holes;
    if (spec == "holes") return out;  // auto-sized, centered
    // holes:HxW or holes:HxW@RxC
    std::string body = spec.substr(6);
    const std::size_t at = body.find('@');
    if (at != std::string::npos) {
      const std::string pos = body.substr(at + 1);
      body = body.substr(0, at);
      const std::size_t px = pos.find('x');
      if (px == std::string::npos || !parse_number(pos.substr(0, px), out.hole_row, 0) ||
          !parse_number(pos.substr(px + 1), out.hole_col, 0)) {
        throw bad("expected holes:HxW@RxC");
      }
    }
    const std::size_t x = body.find('x');
    if (x == std::string::npos || !parse_number(body.substr(0, x), out.hole_rows, 0) ||
        !parse_number(body.substr(x + 1), out.hole_cols, 0)) {
      throw bad("expected holes:HxW or holes:HxW@RxC");
    }
    if (out.hole_rows < 1 || out.hole_cols < 1) throw bad("hole dimensions must be positive");
    return out;
  }
  if (spec.rfind("obstacles:", 0) == 0) {
    out.family = Topology::Family::Obstacles;
    const std::string body = spec.substr(10);
    const std::size_t colon = body.find(':');
    if (colon == std::string::npos || !parse_number(body.substr(0, colon), out.percent, 0) ||
        !parse_number(body.substr(colon + 1), out.seed)) {
      throw bad("expected obstacles:PERCENT:SEED");
    }
    if (out.percent > 90) throw bad("percent must be in [0, 90]");
    return out;
  }
  throw bad(std::string("unknown family; expected ") + topology_spec_grammar());
}

}  // namespace

Topology make_topology(const std::string& spec, int rows, int cols) {
  const ParsedSpec p = parse_spec(spec);
  switch (p.family) {
    case Topology::Family::Grid: return Topology::grid(rows, cols);
    case Topology::Family::Ring: return Topology::ring(rows, cols);
    case Topology::Family::Torus: return Topology::torus(rows, cols);
    case Topology::Family::Holes: {
      if (p.hole_rows == 0) return Topology::with_hole(rows, cols);  // auto
      // Checked before `rows - hole_rows` is formed, which a negative `rows`
      // could overflow.
      check_dimensions(rows, cols);
      const int r0 = p.hole_row >= 0 ? p.hole_row : (rows - p.hole_rows) / 2;
      const int c0 = p.hole_col >= 0 ? p.hole_col : (cols - p.hole_cols) / 2;
      return Topology::with_hole(rows, cols, r0, c0, p.hole_rows, p.hole_cols);
    }
    case Topology::Family::Obstacles: return Topology::obstacles(rows, cols, p.percent, p.seed);
  }
  throw std::invalid_argument("make_topology: bad family");
}

bool topology_spec_parses(const std::string& spec) {
  try {
    parse_spec(spec);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

const char* topology_spec_grammar() {
  return "grid | ring | torus | holes[:HxW[@RxC]] | obstacles:PERCENT:SEED";
}

}  // namespace lumi
