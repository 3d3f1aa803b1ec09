#include "src/campaign/aggregate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace lumi::campaign {

void LongStat::add(long sample) {
  if (sample < 0) throw std::invalid_argument("LongStat::add: negative sample");
  if (count == 0) {
    min = max = sample;
  } else {
    min = std::min(min, sample);
    max = std::max(max, sample);
  }
  ++count;
  sum += sample;
  sum_squares += static_cast<long long>(sample) * sample;
  const int bucket = std::bit_width(static_cast<unsigned long>(sample));
  ++histogram[std::min<std::size_t>(bucket, histogram.size() - 1)];
}

void LongStat::merge(const LongStat& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  sum_squares += other.sum_squares;
  for (std::size_t b = 0; b < histogram.size(); ++b) histogram[b] += other.histogram[b];
}

double LongStat::variance() const {
  // A single-sample cell (every deterministic-scheduler cell has n = 1) has
  // zero spread by definition; the sum-of-squares formula would answer with
  // double-rounding noise — possibly negative — for large samples.
  if (count <= 1) return 0.0;
  const double m = mean();
  // Clamp: catastrophic cancellation can push the exact-sums formula a few
  // ulps below zero, and a negative variance breaks sqrt/threshold callers.
  return std::max(0.0, static_cast<double>(sum_squares) / count - m * m);
}

double LongStat::mean_ci95_halfwidth() const {
  if (count <= 1) return 0.0;
  const double n = static_cast<double>(count);
  // Unbiased sample variance from the exact sums; the sum*sum product is
  // formed in double (it can exceed 64 bits) and clamped against the few
  // ulps of cancellation noise large samples can produce.
  const double centered =
      static_cast<double>(sum_squares) - static_cast<double>(sum) * static_cast<double>(sum) / n;
  const double sample_variance = std::max(0.0, centered / (n - 1.0));
  return 1.96 * std::sqrt(sample_variance / n);
}

long LongStat::percentile(double q) const {
  if (count == 0) return 0;
  // NaN-safe clamp (std::clamp passes NaN through, and casting a NaN rank to
  // long is UB): any non-finite or out-of-range q degrades to the nearest
  // bound.
  if (!(q > 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the wanted sample among the sorted stream, 1-based.
  const long rank = std::max<long>(1, static_cast<long>(std::ceil(q * count)));
  long seen = 0;
  for (std::size_t b = 0; b < histogram.size(); ++b) {
    seen += histogram[b];
    if (seen >= rank) {
      // Bucket b holds values in [2^(b-1), 2^b); report its inclusive top.
      const long top = b == 0 ? 0 : static_cast<long>((1UL << b) - 1);
      return std::clamp(top, min, max);
    }
  }
  return max;
}

std::string LongStat::to_string() const {
  return "n=" + std::to_string(count) + " mean=" + std::to_string(mean()) +
         " min=" + std::to_string(min) + " max=" + std::to_string(max);
}

void CellAccumulator::add(const RunResult& result) {
  ++runs;
  terminated += result.terminated ? 1 : 0;
  explored_all += result.explored_all ? 1 : 0;
  failures += result.failure.empty() ? 0 : 1;
  instants.add(result.stats.instants);
  activations.add(result.stats.activations);
  moves.add(result.stats.moves);
  color_changes.add(result.stats.color_changes);
  visited.add(result.visited_count());
}

void CellAccumulator::merge(const CellAccumulator& other) {
  runs += other.runs;
  terminated += other.terminated;
  explored_all += other.explored_all;
  failures += other.failures;
  instants.merge(other.instants);
  activations.merge(other.activations);
  moves.merge(other.moves);
  color_changes.merge(other.color_changes);
  visited.merge(other.visited);
}

}  // namespace lumi::campaign
