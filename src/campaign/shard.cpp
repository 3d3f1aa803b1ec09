#include "src/campaign/shard.hpp"

#include <charconv>
#include <stdexcept>

namespace lumi::campaign {

std::optional<ShardSpec> shard_from_string(const std::string& text) {
  // Each half must be all digits and fit in unsigned: from_chars takes no
  // sign or space and reports overflow instead of wrapping.
  const auto parse = [](const char* first, const char* last, unsigned& out) {
    const auto [end, ec] = std::from_chars(first, last, out);
    return first != last && ec == std::errc() && end == last;
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  const char* begin = text.data();
  ShardSpec spec;
  if (!parse(begin, begin + slash, spec.index) ||
      !parse(begin + slash + 1, begin + text.size(), spec.count)) {
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
