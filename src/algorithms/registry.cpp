#include "src/algorithms/registry.hpp"

#include <stdexcept>
#include <vector>

#include "src/algorithms/algorithms.hpp"

namespace lumi::algorithms {

namespace {

std::vector<TableEntry> build_table() {
  using enum Synchrony;
  using enum Chirality;
  std::vector<TableEntry> t;
  // FSYNC block of Table 1.
  t.push_back({"4.2.1", Fsync, 2, 2, Common, 2, "[5]", 2, true, algorithm1});
  t.push_back({"4.2.2", Fsync, 2, 2, None, 2, "[5]", 3, false, algorithm2});
  t.push_back({"4.2.3", Fsync, 2, 1, Common, 3, "[5]", 3, true, derived423});
  t.push_back({"4.2.4", Fsync, 2, 1, None, 3, "[5]", 4, false, derived424});
  t.push_back({"4.2.5", Fsync, 1, 3, Common, 2, "[5]", 2, true, algorithm3});
  t.push_back({"4.2.6", Fsync, 1, 3, None, 2, "[5]", 4, false, algorithm4});
  t.push_back({"4.2.7", Fsync, 1, 2, Common, 3, "[5]", 3, true, algorithm5});
  t.push_back({"4.2.8", Fsync, 1, 2, None, 3, "[5]", 5, false, derived428});
  // SSYNC/ASYNC block of Table 1.
  t.push_back({"4.3.1", Async, 2, 3, Common, 2, "[5]", 2, true, algorithm6});
  t.push_back({"4.3.2", Async, 2, 3, None, 2, "[5]", 3, false, algorithm7});
  t.push_back({"4.3.3", Async, 2, 2, Common, 2, "[5]", 3, false, algorithm8});
  t.push_back({"4.3.4", Async, 2, 2, None, 2, "[5]", 4, false, algorithm9});
  t.push_back({"4.3.5", Async, 1, 3, Common, 3, "§3", 3, true, algorithm10});
  // The paper claims ASYNC; see PAPER.md, "Reproduction gaps".
  t.push_back({"4.3.6", Ssync, 1, 3, None, 3, "§3", 6, false, algorithm11});
  check_unique(t);
  return t;
}

const std::vector<TableEntry>& table() {
  static const std::vector<TableEntry> t = build_table();
  return t;
}

}  // namespace

std::span<const TableEntry> table1() { return table(); }

void check_unique(std::span<const TableEntry> entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[i].section == entries[j].section) {
        throw std::invalid_argument("registry: duplicate Table 1 section '" +
                                    entries[i].section + "' (entries " + std::to_string(i) +
                                    " and " + std::to_string(j) + ")");
      }
    }
  }
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const TableEntry& e : entries) names.push_back(e.make().name);
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) {
        throw std::invalid_argument("registry: sections '" + entries[i].section + "' and '" +
                                    entries[j].section + "' both register algorithm '" +
                                    names[i] + "'");
      }
    }
  }
}

const TableEntry& entry(const std::string& section) {
  for (const TableEntry& e : table()) {
    if (e.section == section) return e;
  }
  throw std::out_of_range("no Table 1 entry for section " + section);
}

}  // namespace lumi::algorithms
