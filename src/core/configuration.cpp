#include "src/core/configuration.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace lumi {

Configuration::Configuration(Topology topo, std::vector<Robot> robots)
    : grid_(std::move(topo)),
      robots_(std::move(robots)),
      occupancy_(static_cast<std::size_t>(grid_.num_nodes())) {
  for (Robot& r : robots_) {
    const int idx = grid_.canonical_index(r.pos);
    if (idx < 0) throw std::invalid_argument("robot placed outside the grid");
    r.pos = grid_.node(idx);  // canonical storage (wrapped placements fold in)
    occupancy_[static_cast<std::size_t>(idx)].add(r.color);
  }
}

void Configuration::move_robot(int i, Vec to) {
  Robot& r = robots_.at(static_cast<std::size_t>(i));
  const int to_index = grid_.canonical_index(to);
  if (to_index < 0) throw std::logic_error("move_robot: target outside the grid");
  if (!grid_.are_adjacent(r.pos, to)) throw std::logic_error("move_robot: target not adjacent");
  const int from_index = grid_.index(r.pos);
  // Add before remove: add can throw (destination stack overflow) and must
  // do so before any state changed; removing a present color cannot throw.
  occupancy_[static_cast<std::size_t>(to_index)].add(r.color);
  occupancy_[static_cast<std::size_t>(from_index)].remove(r.color);
  r.pos = grid_.node(to_index);
}

void Configuration::place_robots(std::span<const Robot> robots) {
  for (const Robot& r : robots) {
    if (!grid_.contains(r.pos)) throw std::invalid_argument("robot placed outside the grid");
  }
  const auto node = [this](const Robot& r) -> ColorMultiset& {
    return occupancy_[static_cast<std::size_t>(grid_.index(r.pos))];
  };
  for (const Robot& r : robots_) node(r) = {};
  robots_.assign(robots.begin(), robots.end());
  for (Robot& r : robots_) r.pos = grid_.canonicalize(r.pos);
  try {
    for (const Robot& r : robots_) node(r).add(r.color);
  } catch (const std::overflow_error&) {
    for (const Robot& r : robots_) node(r) = {};
    robots_.clear();
    throw;
  }
}

std::vector<Robot> Configuration::canonical_robots() const {
  std::vector<Robot> sorted(robots_.begin(), robots_.end());
  std::sort(sorted.begin(), sorted.end(), [](const Robot& a, const Robot& b) {
    if (a.pos != b.pos) return a.pos < b.pos;
    return a.color < b.color;
  });
  return sorted;
}

std::uint64_t Configuration::canonical_hash() const {
  // FNV-1a over the canonical robot listing plus the world shape (dimensions
  // for a plain grid — the seed hash — plus the spec for other families).
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(grid_.rows()));
  mix(static_cast<std::uint64_t>(grid_.cols()));
  if (grid_.family() != Topology::Family::Grid) {
    for (const char c : grid_.spec()) mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  for (const Robot& r : canonical_robots()) {
    mix(static_cast<std::uint64_t>(grid_.index(r.pos)));
    mix(static_cast<std::uint64_t>(r.color));
  }
  return h;
}

bool Configuration::same_placement(const Configuration& other) const {
  return grid_ == other.grid_ && canonical_robots() == other.canonical_robots();
}

std::string Configuration::to_string() const {
  std::map<std::pair<int, int>, ColorMultiset> by_node;
  for (const Robot& r : robots_) {
    auto [it, inserted] = by_node.try_emplace({r.pos.row, r.pos.col});
    it->second.add(r.color);
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [node, ms] : by_node) {
    if (!first) out += ", ";
    first = false;
    // Sequential appends: the chained operator+ form trips gcc-12's spurious
    // -Wrestrict (PR105329).
    out += '(';
    out += std::to_string(node.first);
    out += ',';
    out += std::to_string(node.second);
    out += "):";
    out += ms.to_string();
  }
  out += "}";
  return out;
}

Configuration make_configuration(
    Topology topo, const std::vector<std::pair<Vec, std::vector<Color>>>& placements) {
  std::vector<Robot> robots;
  for (const auto& [pos, colors] : placements) {
    for (Color c : colors) robots.push_back(Robot{pos, c});
  }
  return Configuration(std::move(topo), std::move(robots));
}

}  // namespace lumi
