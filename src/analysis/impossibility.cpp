#include "src/analysis/impossibility.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/core/matching.hpp"
#include "src/engine/sync_engine.hpp"

namespace lumi {

namespace {

/// States one protected-node game may expand before it gives up.
constexpr long kMaxGameStates = 2'000'000;

/// Identity-preserving state: (pos, color) per robot.  Identities matter for
/// the per-robot fairness bookkeeping, so no canonicalization here.
struct GameState {
  std::vector<Robot> robots;
};

/// Four bytes of node index and one of color per robot: the whole index, so
/// distinct states never share a key on grids of more than 256 nodes.
std::string encode(const Grid& grid, const GameState& s) {
  std::string out;
  out.reserve(s.robots.size() * 5);
  for (const Robot& r : s.robots) {
    const auto index = static_cast<std::uint32_t>(grid.index(r.pos));
    for (int shift = 0; shift < 32; shift += 8) out.push_back(static_cast<char>(index >> shift));
    out.push_back(static_cast<char>(r.color));
  }
  return out;
}

struct Edge {
  int to = -1;
  std::uint32_t activated = 0;  ///< bitmask of robots acting on this edge
};

struct Node {
  GameState state;
  std::vector<Edge> edges;
  std::uint32_t enabled_mask = 0;  ///< robots enabled in this configuration
  bool terminal = false;
};

class Game {
 public:
  Game(const Algorithm& alg, const Grid& grid, Vec target)
      : alg_(alg), compiled_(CompiledAlgorithm::get(alg)), grid_(grid), target_(target) {}

  AdversaryResult solve() {
    AdversaryResult result;
    result.protected_node = target_;

    GameState init;
    for (const auto& [pos, color] : alg_.initial_robots) init.robots.push_back(Robot{pos, color});
    if (occupies_target(init)) {
      result.summary = "initial configuration already occupies the target";
      return result;
    }
    const int root = intern(init);
    // BFS expansion of the restricted graph (successors that keep the
    // target node unoccupied).
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (static_cast<long>(nodes_.size()) > kMaxGameStates) {
        result.summary = "state budget exhausted";
        result.states = static_cast<long>(nodes_.size());
        return result;
      }
      expand(static_cast<int>(i));
    }
    result.states = static_cast<long>(nodes_.size());

    // (a) reachable terminal configuration?
    for (const Node& n : nodes_) {
      if (n.terminal) {
        result.adversary_wins = true;
        result.via_terminal = true;
        result.summary = "terminal configuration reachable while avoiding the target";
        return result;
      }
    }
    // (b) SCC with a fair cycle?
    if (fair_scc_exists(root)) {
      result.adversary_wins = true;
      result.via_fair_cycle = true;
      result.summary = "fair non-terminating schedule avoids the target forever";
      return result;
    }
    result.summary = "every fair SSYNC schedule eventually visits the target";
    return result;
  }

 private:
  bool occupies_target(const GameState& s) const {
    for (const Robot& r : s.robots) {
      if (r.pos == target_) return true;
    }
    return false;
  }

  int intern(const GameState& s) {
    const std::string key = encode(grid_, s);
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    const int id = static_cast<int>(nodes_.size());
    index_.emplace(key, id);
    Node n;
    n.state = s;
    nodes_.push_back(std::move(n));
    return id;
  }

  void expand(int id) {
    // note: nodes_ may reallocate while emitting; copy what we need first.
    const GameState state = nodes_[static_cast<std::size_t>(id)].state;
    Configuration config(grid_, state.robots);
    std::vector<std::vector<Action>> actions(state.robots.size());
    std::uint32_t enabled_mask = 0;
    std::vector<int> enabled;
    for (int r = 0; r < static_cast<int>(state.robots.size()); ++r) {
      actions[static_cast<std::size_t>(r)] = enabled_actions(*compiled_, config, r);
      if (!actions[static_cast<std::size_t>(r)].empty()) {
        enabled_mask |= 1u << r;
        enabled.push_back(r);
      }
    }
    nodes_[static_cast<std::size_t>(id)].enabled_mask = enabled_mask;
    if (enabled.empty()) {
      nodes_[static_cast<std::size_t>(id)].terminal = true;
      return;
    }
    // Every nonempty subset x every action-choice combination.
    const std::size_t n = enabled.size();
    std::vector<Edge> edges;
    for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
      std::vector<int> subset;
      for (std::size_t b = 0; b < n; ++b) {
        if (mask & (1ULL << b)) subset.push_back(enabled[b]);
      }
      std::vector<std::size_t> choice(subset.size(), 0);
      while (true) {
        GameState next = state;
        std::uint32_t activated = 0;
        bool legal = true;
        for (std::size_t i = 0; i < subset.size() && legal; ++i) {
          const int robot = subset[i];
          const Action& a = actions[static_cast<std::size_t>(robot)][choice[i]];
          Robot& r = next.robots[static_cast<std::size_t>(robot)];
          r.color = a.new_color;
          if (a.move.has_value()) {
            const std::optional<Vec> to = grid_.step(r.pos, *a.move);
            if (!to) {
              legal = false;
            } else {
              r.pos = *to;
            }
          }
          activated |= 1u << robot;
        }
        if (legal && !occupies_target(next)) {
          edges.push_back(Edge{intern(next), activated});
        }
        std::size_t d = 0;
        while (d < subset.size()) {
          choice[d] += 1;
          if (choice[d] < actions[static_cast<std::size_t>(subset[d])].size()) break;
          choice[d] = 0;
          d += 1;
        }
        if (d == subset.size()) break;
      }
    }
    nodes_[static_cast<std::size_t>(id)].edges = std::move(edges);
  }

  /// Tarjan SCCs over the restricted graph; a component admits a fair cycle
  /// iff it contains an edge (cycle exists) and every robot is activated on
  /// some internal edge or disabled in some member configuration.
  bool fair_scc_exists(int root) {
    const int n = static_cast<int>(nodes_.size());
    std::vector<int> index(static_cast<std::size_t>(n), -1);
    std::vector<int> low(static_cast<std::size_t>(n), 0);
    std::vector<int> comp(static_cast<std::size_t>(n), -1);
    std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
    std::vector<int> scc_stack;
    int next_index = 0;
    int next_comp = 0;

    struct Frame {
      int v;
      std::size_t edge = 0;
    };
    std::vector<Frame> call;
    call.push_back({root});
    index[static_cast<std::size_t>(root)] = low[static_cast<std::size_t>(root)] = next_index++;
    scc_stack.push_back(root);
    on_stack[static_cast<std::size_t>(root)] = true;

    std::vector<std::vector<int>> components;
    while (!call.empty()) {
      Frame& f = call.back();
      const auto& edges = nodes_[static_cast<std::size_t>(f.v)].edges;
      if (f.edge < edges.size()) {
        const int w = edges[f.edge].to;
        f.edge += 1;
        if (index[static_cast<std::size_t>(w)] < 0) {
          index[static_cast<std::size_t>(w)] = low[static_cast<std::size_t>(w)] = next_index++;
          scc_stack.push_back(w);
          on_stack[static_cast<std::size_t>(w)] = true;
          call.push_back({w});
        } else if (on_stack[static_cast<std::size_t>(w)]) {
          low[static_cast<std::size_t>(f.v)] =
              std::min(low[static_cast<std::size_t>(f.v)], index[static_cast<std::size_t>(w)]);
        }
      } else {
        if (low[static_cast<std::size_t>(f.v)] == index[static_cast<std::size_t>(f.v)]) {
          components.emplace_back();
          while (true) {
            const int w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[static_cast<std::size_t>(w)] = false;
            comp[static_cast<std::size_t>(w)] = next_comp;
            components.back().push_back(w);
            if (w == f.v) break;
          }
          next_comp += 1;
        }
        const int v = f.v;
        call.pop_back();
        if (!call.empty()) {
          low[static_cast<std::size_t>(call.back().v)] = std::min(
              low[static_cast<std::size_t>(call.back().v)], low[static_cast<std::size_t>(v)]);
        }
      }
    }

    const std::uint32_t all_robots =
        (1u << alg_.initial_robots.size()) - 1u;
    for (const std::vector<int>& members : components) {
      std::uint32_t activated = 0;
      std::uint32_t disabled_somewhere = 0;
      bool has_internal_edge = false;
      for (int v : members) {
        disabled_somewhere |= ~nodes_[static_cast<std::size_t>(v)].enabled_mask & all_robots;
        for (const Edge& e : nodes_[static_cast<std::size_t>(v)].edges) {
          if (comp[static_cast<std::size_t>(e.to)] == comp[static_cast<std::size_t>(v)]) {
            has_internal_edge = true;
            activated |= e.activated;
          }
        }
      }
      if (has_internal_edge && ((activated | disabled_somewhere) & all_robots) == all_robots) {
        return true;
      }
    }
    return false;
  }

  const Algorithm& alg_;
  std::shared_ptr<const CompiledAlgorithm> compiled_;
  const Grid& grid_;
  Vec target_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, int> index_;
};

}  // namespace

AdversaryResult check_protected_node(const Algorithm& alg, const Grid& grid, Vec target) {
  if (alg.num_robots() > 30) throw std::invalid_argument("too many robots for the game solver");
  Game game(alg, grid, target);
  return game.solve();
}

AdversaryResult find_ssync_adversary(const Algorithm& alg, const Grid& grid) {
  AdversaryResult overall;
  for (int idx = 0; idx < grid.num_nodes(); ++idx) {
    if (!grid.is_node_index(idx)) continue;  // walls are not defensible nodes
    AdversaryResult r = check_protected_node(alg, grid, grid.node(idx));
    overall.states += r.states;
    if (r.adversary_wins) {
      r.states = overall.states;
      return r;
    }
  }
  overall.adversary_wins = false;
  overall.summary = "no node can be defended: every fair SSYNC schedule explores the grid";
  return overall;
}

}  // namespace lumi
