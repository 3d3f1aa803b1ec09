#include "src/analysis/model_checker.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/core/matching.hpp"

namespace lumi {

namespace {

/// Robot phase in the ASYNC checker (sync models keep everything Idle).
enum class McPhase : std::uint32_t { Idle = 0, Decided = 1, Colored = 2 };

// A state is its robots' words in path order followed by ceil(nodes / 64)
// visited words; its key is the same words with the robots sorted, so
// anonymous robots collapse symmetric states.
constexpr int kNodeShift = 9;
constexpr std::size_t kWitnessTail = 40;  ///< keeps witnesses reviewable
constexpr std::uint8_t kGray = 1;         ///< on the DFS stack
constexpr std::uint8_t kBlack = 2;        ///< fully explored

constexpr RobotWord pack(int node, Color color, McPhase phase, Color pending, int move) {
  return static_cast<RobotWord>(node) << kNodeShift | static_cast<RobotWord>(color) << 7 |
         static_cast<RobotWord>(phase) << 5 | static_cast<RobotWord>(pending) << 3 |
         static_cast<RobotWord>(move + 1);
}
constexpr McPhase phase_of(RobotWord r) { return static_cast<McPhase>((r >> 5) & 3); }
constexpr Color pending_color_of(RobotWord r) { return static_cast<Color>((r >> 3) & 3); }
constexpr int pending_move_of(RobotWord r) { return static_cast<int>(r & 7) - 1; }
static_assert(idle_robot(5, Color::B) == pack(5, Color::B, McPhase::Idle, Color::B, -1));

/// Open-addressing set of state keys: linear probing over uint32 ids, the
/// keys themselves back to back in one flat arena (id-major).
class StateTable {
 public:
  explicit StateTable(std::size_t key_words) : words_(key_words), slots_(1024, kEmpty) {}

  /// The id of `key`, inserted under the next id when absent; `second` is
  /// true when this call inserted it.
  std::pair<std::uint32_t, bool> find_or_insert(const std::uint32_t* key) {
    if (2 * (size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      const std::uint32_t id = slots_[i];
      if (id == kEmpty) {
        slots_[i] = static_cast<std::uint32_t>(size());
        keys_.insert(keys_.end(), key, key + words_);
        return {slots_[i], true};
      }
      if (std::equal(key, key + words_, keys_.begin() + static_cast<std::ptrdiff_t>(id * words_))) {
        return {id, false};
      }
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  std::size_t size() const { return keys_.size() / words_; }

  std::uint64_t hash(const std::uint32_t* key) const {
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < words_; ++i) {
      h = (h ^ key[i]) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 32;
    }
    return h;
  }

  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < size(); ++id) {
      std::size_t i = hash(keys_.data() + id * words_) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(id);
    }
  }

  std::size_t words_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> slots_;  ///< power-of-two size, at most half full
};

class Checker {
 public:
  Checker(const Algorithm& alg, const Grid& grid, CheckModel model, const CheckOptions& opts)
      : grid_(grid), opts_(opts), n_(alg.initial_robots.size()),
        words_((static_cast<std::size_t>(grid.num_nodes()) + 63) / 64),
        full_(words_, 0), table_(n_ + 2 * words_), cur_(n_), seen_(words_), key_(n_ + 2 * words_),
        successors_(alg, grid, model) {
    if (grid.rows() < alg.min_rows || grid.cols() < alg.min_cols) {
      throw std::invalid_argument("model_check: grid below the algorithm's minimum");
    }
    // Coverage target: one bit per *reachable* node of the bounding box
    // (wall cells are never visited and never required; on a plain grid
    // this is the full box).
    for (int i = 0; i < grid.num_nodes(); ++i) {
      if (grid.is_node_index(i)) full_[static_cast<std::size_t>(i) / 64] |= 1ULL << (i % 64);
    }
    // The root occupies slot 0 of the state arena.
    visited_.assign(words_, 0);
    for (const auto& [pos, color] : alg.initial_robots) {
      const int node = grid.canonical_index(pos);
      if (node < 0) throw std::invalid_argument("model_check: initial robot outside the grid");
      robots_.push_back(idle_robot(node, color));
      mark(0, node);
    }
  }

  CheckResult run() {
    dfs();
    if (result_.failure.empty()) result_.ok = true;
    return result_;
  }

 private:
  /// One DFS stack entry: the state's arena slot and table id, and the
  /// contiguous arena range [begin, end) holding its successors.
  struct Frame {
    std::size_t slot;
    std::uint32_t id;
    std::size_t begin;
    std::size_t next;
    std::size_t end;
  };

  std::size_t num_slots() const { return visited_.size() / words_; }
  RobotWord robot(std::size_t slot, std::size_t i) const { return robots_[slot * n_ + i]; }
  void mark(std::size_t slot, int node) {
    visited_[slot * words_ + static_cast<std::size_t>(node) / 64] |= 1ULL << (node % 64);
  }
  void truncate(std::size_t slots) {
    robots_.resize(slots * n_);
    visited_.resize(slots * words_);
  }

  // Iterative DFS with tri-color marking: a back edge (successor on the
  // current stack) is a reachable cycle -> failure.
  void dfs() {
    push(0);
    while (!frames_.empty() && result_.failure.empty()) {
      Frame& top = frames_.back();
      if (top.next == top.end) {
        color_[top.id] = kBlack;
        truncate(top.begin);
        frames_.pop_back();
        continue;
      }
      const std::size_t next = top.next++;
      result_.transitions += 1;
      push(next);
    }
  }

  void push(std::size_t slot) {
    const auto [id, inserted] = table_.find_or_insert(key_of(slot));
    if (!inserted) {
      if (color_[id] == kGray) {
        fail("cycle: a schedule revisits a configuration (non-terminating execution)", slot);
      }
      return;  // black: fully explored before
    }
    color_.push_back(kGray);
    result_.states += 1;
    if (result_.states > opts_.max_states) {
      fail("state budget exhausted (" + std::to_string(opts_.max_states) + ")", slot);
      return;
    }
    const std::size_t begin = num_slots();
    try {
      expand(slot);
    } catch (const std::exception& e) {
      fail(std::string("engine error: ") + e.what(), slot);
      return;
    }
    const std::size_t end = num_slots();
    if (begin == end) {
      result_.terminal_states += 1;
      const std::uint64_t* visited = &visited_[slot * words_];
      if (!std::equal(full_.begin(), full_.end(), visited)) {
        int covered = 0;
        for (std::size_t w = 0; w < words_; ++w) covered += std::popcount(visited[w]);
        fail("terminal configuration with incomplete coverage (" + std::to_string(covered) +
                 "/" + std::to_string(grid_.reachable_nodes()) + " nodes)",
             slot);
      }
    }
    frames_.push_back(Frame{slot, id, begin, begin, end});
  }

  /// The sorted robot words of `slot`, then its visited words as 32-bit halves.
  const std::uint32_t* key_of(std::size_t slot) {
    const auto robots = robots_.begin() + static_cast<std::ptrdiff_t>(slot * n_);
    std::copy(robots, robots + static_cast<std::ptrdiff_t>(n_), key_.begin());
    std::sort(key_.begin(), key_.begin() + static_cast<std::ptrdiff_t>(n_));
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t bits = visited_[slot * words_ + w];
      key_[n_ + 2 * w] = static_cast<std::uint32_t>(bits);
      key_[n_ + 2 * w + 1] = static_cast<std::uint32_t>(bits >> 32);
    }
    return key_.data();
  }

  /// Records the first failure; the witness is the tail of the DFS path
  /// followed by `offending`.
  void fail(const std::string& reason, std::size_t offending) {
    if (!result_.failure.empty()) return;
    result_.failure = reason;
    const std::size_t path = frames_.size() + 1;
    const std::size_t first = path > kWitnessTail ? path - kWitnessTail : 0;
    for (std::size_t i = first; i < frames_.size(); ++i) {
      result_.witness.push_back(render(frames_[i].slot));
    }
    result_.witness.push_back(render(offending));
  }

  std::string render(std::size_t slot) const {
    std::vector<Robot> visible;
    for (std::size_t i = 0; i < n_; ++i) {
      visible.push_back(Robot{grid_.node(node_of(robot(slot, i))), color_of(robot(slot, i))});
    }
    std::string out = Configuration(grid_, std::move(visible)).to_string();
    for (std::size_t i = 0; i < n_; ++i) {
      const RobotWord r = robot(slot, i);
      if (phase_of(r) == McPhase::Idle) continue;
      const Vec pos = grid_.node(node_of(r));
      out += " [robot@(" + std::to_string(pos.row) + "," + std::to_string(pos.col) + ") " +
             (phase_of(r) == McPhase::Decided ? "decided" : "colored") + "]";
    }
    return out;
  }

  /// Appends every successor of `slot` to the arena, in schedule order.
  void expand(std::size_t slot) {
    // Copies first: the arena grows (and may move) while successors arrive.
    const auto robots = robots_.begin() + static_cast<std::ptrdiff_t>(slot * n_);
    std::copy(robots, robots + static_cast<std::ptrdiff_t>(n_), cur_.begin());
    const auto visited = visited_.begin() + static_cast<std::ptrdiff_t>(slot * words_);
    std::copy(visited, visited + static_cast<std::ptrdiff_t>(words_), seen_.begin());
    // Each successor carries the parent's visited words plus the nodes of
    // the robots that stepped.
    successors_.expand(cur_, [this](std::span<const RobotWord> next, std::uint64_t acted) {
      const std::size_t out = num_slots();
      robots_.insert(robots_.end(), next.begin(), next.end());
      visited_.insert(visited_.end(), seen_.begin(), seen_.end());
      for (; acted != 0; acted &= acted - 1) mark(out, node_of(next[std::countr_zero(acted)]));
    });
  }

  const Grid& grid_;
  CheckOptions opts_;
  std::size_t n_;      ///< robots per state
  std::size_t words_;  ///< visited words per state
  std::vector<std::uint64_t> full_;  ///< coverage target
  CheckResult result_;
  StateTable table_;
  std::vector<std::uint8_t> color_;  ///< by state id: kGray or kBlack
  std::vector<Frame> frames_;
  // State arena: the DFS path's successor ranges, n_ robot words and
  // words_ visited words per slot.
  std::vector<RobotWord> robots_;
  std::vector<std::uint64_t> visited_;
  // Scratch reused by every expansion.
  std::vector<RobotWord> cur_;
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint32_t> key_;
  Successors successors_;
};

}  // namespace

Successors::Successors(const Algorithm& alg, const Grid& grid, CheckModel model)
    : compiled_(CompiledAlgorithm::get(alg)), grid_(grid), model_(model), config_(grid, {}),
      placed_(alg.initial_robots.size()), actions_(alg.initial_robots.size()) {
  if (grid.num_nodes() >= (1 << (32 - kNodeShift))) {
    throw std::invalid_argument("grid has more nodes than a robot word indexes");
  }
  if (alg.initial_robots.size() >= 64) {  // SSYNC counts subsets up to 1 << robots
    throw std::invalid_argument("64 robots or more");
  }
}

std::uint64_t Successors::expand(std::span<const RobotWord> robots, const Emit& emit) {
  if (robots.size() != placed_.size()) {
    throw std::invalid_argument("Successors::expand: wrong number of robots");
  }
  next_.assign(robots.begin(), robots.end());
  for (std::size_t i = 0; i < robots.size(); ++i) {
    placed_[i] = Robot{grid_.node(node_of(robots[i])), color_of(robots[i])};
  }
  config_.place_robots(placed_);
  return model_ == CheckModel::Async ? async_successors(robots, emit)
                                     : sync_successors(robots, emit);
}

/// Fills actions_[i] with robot i's enabled behaviors in `config_`.
void Successors::look(std::size_t i) {
  take_snapshot_into(config_, static_cast<int>(i), compiled_->phi(), snap_);
  enabled_actions_into(*compiled_, snap_, actions_[i]);
}

/// The node robot `r` reaches by moving `d`; throws when that leaves the grid.
int Successors::step(RobotWord r, Dir d) const {
  const std::optional<Vec> to = grid_.step(grid_.node(node_of(r)), d);
  if (!to) throw std::logic_error("robot would leave the grid");
  return grid_.index(*to);
}

// --- FSYNC / SSYNC -----------------------------------------------------------
std::uint64_t Successors::sync_successors(std::span<const RobotWord> robots, const Emit& emit) {
  enabled_.clear();
  std::uint64_t can_step = 0;
  for (std::size_t i = 0; i < robots.size(); ++i) {
    look(i);
    if (actions_[i].empty()) continue;
    enabled_.push_back(i);
    can_step |= 1ULL << i;
  }
  // FSYNC activates every enabled robot, SSYNC every nonempty subset of them
  // (bit b of `mask` selects enabled_[b]).
  const std::uint64_t all = (1ULL << enabled_.size()) - 1;
  for (std::uint64_t mask = model_ == CheckModel::Fsync ? all : 1; mask != 0 && mask <= all;
       ++mask) {
    subset_.clear();
    std::uint64_t acted = 0;
    for (std::size_t b = 0; b < enabled_.size(); ++b) {
      if ((mask & (1ULL << b)) == 0) continue;
      subset_.push_back(enabled_[b]);
      acted |= 1ULL << enabled_[b];
    }
    // One successor per combination of the subset's behaviors.
    choice_.assign(subset_.size(), 0);
    while (true) {
      // Simultaneous application: all moves relative to the current state.
      for (std::size_t k = 0; k < subset_.size(); ++k) {
        const std::size_t i = subset_[k];
        const Action& a = actions_[i][choice_[k]];
        const int node = a.move.has_value() ? step(robots[i], *a.move) : node_of(robots[i]);
        next_[i] = idle_robot(node, a.new_color);
      }
      emit(next_, acted);
      // Next choice vector (mixed-radix increment).
      std::size_t d = 0;
      while (d < subset_.size()) {
        choice_[d] += 1;
        if (choice_[d] < actions_[subset_[d]].size()) break;
        choice_[d] = 0;
        d += 1;
      }
      if (d == subset_.size()) break;
    }
    for (const std::size_t i : subset_) next_[i] = robots[i];
  }
  return can_step;
}

// --- ASYNC -------------------------------------------------------------------
std::uint64_t Successors::async_successors(std::span<const RobotWord> robots, const Emit& emit) {
  std::uint64_t can_step = 0;
  for (std::size_t i = 0; i < robots.size(); ++i) {
    const RobotWord r = robots[i];
    const int node = node_of(r);
    const std::uint64_t bit = 1ULL << i;
    switch (phase_of(r)) {
      case McPhase::Idle: {
        // Look: one successor per distinct enabled behavior (stale-view
        // decisions are modeled by the delay before the later phases).
        look(i);
        if (actions_[i].empty()) continue;  // disabled: no step
        for (const Action& a : actions_[i]) {
          const int move = a.move.has_value() ? static_cast<int>(*a.move) : -1;
          next_[i] = pack(node, color_of(r), McPhase::Decided, a.new_color, move);
          emit(next_, bit);
        }
        break;
      }
      case McPhase::Decided: {  // Compute-end: color becomes visible.
        const Color c = pending_color_of(r);
        next_[i] = pack(node, c, McPhase::Colored, c, pending_move_of(r));
        emit(next_, bit);
        break;
      }
      case McPhase::Colored: {  // Move.
        const int move = pending_move_of(r);
        const int to = move >= 0 ? step(r, static_cast<Dir>(move)) : node;
        next_[i] = idle_robot(to, color_of(r));
        emit(next_, bit);
        break;
      }
    }
    next_[i] = r;
    can_step |= bit;
  }
  return can_step;
}

CheckResult model_check(const Algorithm& alg, const Grid& grid, CheckModel model,
                        const CheckOptions& opts) {
  Checker checker(alg, grid, model, opts);
  return checker.run();
}

std::string CheckResult::to_string() const {
  std::string out = ok ? "OK" : ("FAIL: " + failure);
  out += " (" + std::to_string(states) + " states, " + std::to_string(transitions) +
         " transitions, " + std::to_string(terminal_states) + " terminal)";
  if (!ok && !witness.empty()) {
    out += "\n  witness tail:";
    for (const std::string& w : witness) out += "\n    " + w;
  }
  return out;
}

}  // namespace lumi
