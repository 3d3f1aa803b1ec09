#include "src/campaign/shard.hpp"

#include <stdexcept>

#include "src/core/text.hpp"

namespace lumi::campaign {

std::optional<ShardSpec> shard_from_string(const std::string& text) {
  // Each half must be all digits and fit in unsigned: no sign, no space,
  // and overflow is an error instead of a wrap.
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  ShardSpec spec;
  if (!parse_number(std::string_view(text).substr(0, slash), spec.index) ||
      !parse_number(std::string_view(text).substr(slash + 1), spec.count)) {
    return std::nullopt;
  }
  if (spec.count == 0 || spec.index >= spec.count) return std::nullopt;
  return spec;
}

std::string to_string(const ShardSpec& spec) {
  return std::to_string(spec.index) + "/" + std::to_string(spec.count);
}

Expansion shard(const Expansion& full, const ShardSpec& spec) {
  if (spec.count == 0) throw std::invalid_argument("shard: count must be positive");
  if (spec.index >= spec.count) throw std::invalid_argument("shard: index out of range");
  Expansion out;
  out.cells = full.cells;
  out.options = full.options;
  for (std::size_t j = spec.index; j < full.jobs.size(); j += spec.count) {
    out.jobs.push_back(full.jobs[j]);
  }
  return out;
}

}  // namespace lumi::campaign
