#include "src/analysis/impossibility.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "src/analysis/model_checker.hpp"

namespace lumi {

namespace {

/// States one protected-node game may expand before it gives up.
constexpr long kMaxGameStates = 2'000'000;

struct Edge {
  int to = -1;
  std::uint64_t activated = 0;  ///< bitmask of robots acting on this edge
};

struct Node {
  /// Robot words in identity order (fairness is per robot, so robots are
  /// not sorted): the node's key in Game::index_, whose keys never move.
  const std::vector<RobotWord>* robots = nullptr;
  std::vector<Edge> edges;
  std::uint64_t enabled_mask = 0;  ///< robots enabled in this configuration
};

class Game {
 public:
  Game(const Algorithm& alg, const Grid& grid, Vec target)
      : n_(alg.initial_robots.size()), target_(target),
        target_node_(grid.canonical_index(target)), successors_(alg, grid, CheckModel::Ssync) {
    for (const auto& [pos, color] : alg.initial_robots) {
      const int node = grid.canonical_index(pos);
      if (node < 0) {
        throw std::invalid_argument("check_protected_node: initial robot outside the grid");
      }
      init_.push_back(idle_robot(node, color));
    }
  }

  AdversaryResult solve() {
    AdversaryResult result;
    result.protected_node = target_;

    if (occupies_target(init_)) {
      result.summary = "initial configuration already occupies the target";
      return result;
    }
    const int root = intern(init_);
    // BFS expansion of the restricted graph (successors that keep the
    // target node unoccupied).
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (static_cast<long>(nodes_.size()) > kMaxGameStates) {
        result.summary = "state budget exhausted";
        result.states = static_cast<long>(nodes_.size());
        return result;
      }
      expand(i);
    }
    result.states = static_cast<long>(nodes_.size());

    // (a) reachable terminal configuration?
    for (const Node& n : nodes_) {
      if (n.enabled_mask == 0) {
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
  bool occupies_target(std::span<const RobotWord> robots) const {
    return std::any_of(robots.begin(), robots.end(),
                       [&](RobotWord r) { return node_of(r) == target_node_; });
  }

  /// The id of the state `robots`, added when new.
  int intern(std::span<const RobotWord> robots) {
    const auto [it, inserted] = index_.try_emplace(
        std::vector<RobotWord>(robots.begin(), robots.end()), static_cast<int>(nodes_.size()));
    if (inserted) nodes_.push_back(Node{&it->first, {}, 0});
    return it->second;
  }

  void expand(std::size_t id) {
    std::vector<Edge> edges;
    const std::uint64_t enabled = successors_.expand(
        *nodes_[id].robots, [&](std::span<const RobotWord> next, std::uint64_t acted) {
          if (!occupies_target(next)) edges.push_back(Edge{intern(next), acted});
        });
    nodes_[id].enabled_mask = enabled;
    nodes_[id].edges = std::move(edges);
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

    const std::uint64_t all_robots = (1ULL << n_) - 1;
    for (const std::vector<int>& members : components) {
      std::uint64_t activated = 0;
      std::uint64_t disabled_somewhere = 0;
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

  std::size_t n_;  ///< robots per state
  Vec target_;
  int target_node_;  ///< -1 when the target is no node of the grid
  Successors successors_;
  std::vector<RobotWord> init_;
  std::map<std::vector<RobotWord>, int> index_;  ///< node id by state
  std::vector<Node> nodes_;
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
