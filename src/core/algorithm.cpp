#include "src/core/algorithm.hpp"

#include <array>
#include <stdexcept>

#include "src/core/view.hpp"

namespace lumi {

std::string to_string(Synchrony s) {
  switch (s) {
    case Synchrony::Fsync: return "FSYNC";
    case Synchrony::Ssync: return "SSYNC";
    case Synchrony::Async: return "ASYNC";
  }
  return "?";
}

std::string to_string(Chirality c) {
  return c == Chirality::Common ? "common" : "none";
}

std::span<const Sym> Algorithm::symmetries() const {
  return chirality == Chirality::Common ? rotations() : all_symmetries();
}

Configuration Algorithm::initial_configuration(const Grid& grid) const {
  if (grid.rows() < min_rows || grid.cols() < min_cols) {
    throw std::invalid_argument(name + ": grid " + grid.to_string() + " below minimum " +
                                std::to_string(min_rows) + "x" + std::to_string(min_cols));
  }
  std::vector<Robot> robots;
  robots.reserve(initial_robots.size());
  for (const auto& [pos, color] : initial_robots) robots.push_back(Robot{pos, color});
  return Configuration(grid, std::move(robots));
}

std::vector<Color> Algorithm::reachable_colors() const {
  std::array<bool, kMaxColors> lit{};
  for (const auto& [pos, color] : initial_robots) {
    (void)pos;
    lit[static_cast<std::size_t>(color)] = true;
  }
  // Fixed point of the recoloring graph: at most kMaxColors rounds.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : rules) {
      if (lit[static_cast<std::size_t>(rule.self)] &&
          !lit[static_cast<std::size_t>(rule.new_color)]) {
        lit[static_cast<std::size_t>(rule.new_color)] = true;
        changed = true;
      }
    }
  }
  std::vector<Color> out;
  for (int i = 0; i < kMaxColors; ++i) {
    if (lit[static_cast<std::size_t>(i)]) out.push_back(static_cast<Color>(i));
  }
  return out;
}

const Rule* Algorithm::find_rule(const std::string& label) const {
  for (const Rule& r : rules) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

void Algorithm::validate() const {
  auto color_ok = [this](Color c) { return static_cast<int>(c) < num_colors; };
  if (phi < 1 || phi > kMaxPhi) throw std::invalid_argument(name + ": phi out of range");
  if (num_colors < 1 || num_colors > kMaxColors) {
    throw std::invalid_argument(name + ": num_colors out of range");
  }
  if (initial_robots.empty()) throw std::invalid_argument(name + ": no robots");
  for (const auto& [pos, color] : initial_robots) {
    if (!color_ok(color)) throw std::invalid_argument(name + ": initial color out of palette");
    if (pos.row < 0 || pos.col < 0 || pos.row >= min_rows || pos.col >= min_cols) {
      throw std::invalid_argument(name + ": initial robot outside the minimal grid");
    }
  }
  const ViewKernel& kernel = ViewKernel::get(phi);
  for (const Rule& rule : rules) {
    if (!color_ok(rule.self) || !color_ok(rule.new_color)) {
      throw std::invalid_argument(name + "/" + rule.label + ": rule color out of palette");
    }
    for (const auto& [offset, pattern] : rule.cells) {
      if (kernel.index_of(offset) < 0) {
        throw std::invalid_argument(name + "/" + rule.label + ": guard cell " +
                                    offset_name(offset) + " outside phi=" + std::to_string(phi));
      }
      if (pattern.kind() == CellPattern::Kind::Multiset) {
        const ColorMultiset& ms = pattern.multiset();
        for (int i = 0; i < kMaxColors; ++i) {
          const Color c = static_cast<Color>(i);
          if (ms.count(c) > 0 && !color_ok(c)) {
            throw std::invalid_argument(name + "/" + rule.label + ": guard color out of palette");
          }
        }
      }
    }
    const CellPattern center = rule.pattern_at({0, 0});
    if (center.kind() != CellPattern::Kind::Multiset ||
        center.multiset().count(rule.self) == 0) {
      throw std::invalid_argument(name + "/" + rule.label +
                                  ": center must be a multiset containing the robot");
    }
    if (rule.move.has_value()) {
      const CellPattern target = rule.pattern_at(dir_vec(*rule.move));
      if (!target.guarantees_node_exists()) {
        throw std::invalid_argument(name + "/" + rule.label +
                                    ": movement target cell may be a wall; guard must pin it");
      }
    }
  }
}

}  // namespace lumi
