// Mergeable result accumulators for campaign runs.
//
// Every statistic here is order-independent (exact integer sums, min/max,
// log2 histograms), so adding runs in any order, or merging shard
// accumulators, yields bit-identical campaign summaries regardless of
// thread count or stealing order — the property tests/test_campaign.cpp
// pins down.
#pragma once

#include <array>
#include <string>

#include "src/engine/runner.hpp"

namespace lumi::campaign {

/// Summary of a stream of non-negative long samples: count, exact sum, exact
/// sum of squares, min/max and a log2 histogram (bucket b counts samples
/// whose bit width is b, i.e. values in [2^(b-1), 2^b)); bucket 0 counts
/// zeros.
struct LongStat {
  long count = 0;
  long long sum = 0;
  long long sum_squares = 0;  ///< exact; overflows past ~9e6 samples of 1e6
  long min = 0;
  long max = 0;
  std::array<long, 32> histogram{};

  void add(long sample);
  void merge(const LongStat& other);
  double mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  /// Population variance, from the exact sums (order-independent).
  double variance() const;
  /// Half-width of the normal-approximation 95% confidence interval on the
  /// mean: 1.96 * sqrt(s^2 / n) with the unbiased sample variance s^2.
  /// Computed from the exact merged sums, so any disjoint sharding of the
  /// stream reports the identical interval (exact-mergeable, like every
  /// other statistic here); 0 for n <= 1, where no spread is estimable.
  double mean_ci95_halfwidth() const;
  /// Upper-bound estimate of the q-quantile (q in [0,1]) from the log2
  /// histogram: the top of the bucket holding the ceil(q*count)-th smallest
  /// sample, clamped to [min, max].  Exact for 0/1-valued streams; within a
  /// factor of 2 otherwise.  Order-independent, so merged shards agree.
  long percentile(double q) const;

  std::string to_string() const;

  friend bool operator==(const LongStat&, const LongStat&) = default;
};

/// Accumulator for one scenario cell (algorithm x grid x scheduler); each
/// added run contributes its outcome flags and statistic streams.
struct CellAccumulator {
  long runs = 0;
  long terminated = 0;
  long explored_all = 0;
  long failures = 0;  ///< runs with a nonempty failure string
  LongStat instants;
  LongStat activations;
  LongStat moves;
  LongStat color_changes;
  LongStat visited;  ///< nodes covered per run

  void add(const RunResult& result);
  void merge(const CellAccumulator& other);
  double termination_rate() const { return runs == 0 ? 0.0 : static_cast<double>(terminated) / runs; }
  double exploration_rate() const {
    return runs == 0 ? 0.0 : static_cast<double>(explored_all) / runs;
  }

  friend bool operator==(const CellAccumulator&, const CellAccumulator&) = default;
};

}  // namespace lumi::campaign
