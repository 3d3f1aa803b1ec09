// Campaign telemetry: a process-wide metrics registry of named counters,
// gauges and fixed-bucket histograms.
//
// Design constraints (docs/OBSERVABILITY.md, docs/DETERMINISM.md):
//  - Result-inert by construction: metrics *observe* execution, they never
//    feed results.  The lumi-lint rule `obs-isolation` bans obs:: symbols
//    from report rendering and checkpoint serialization, and the telemetry
//    on/off byte-identity of reports is pinned by tests/test_obs_identity.cpp.
//  - No hot-path locks: every counter, gauge and histogram bucket is one
//    atomic written with relaxed ordering.  Writers add a few times per job
//    or batch, never per instant, so threads sharing an atomic contend far
//    less than the runs they count cost.
//  - Near-zero when disabled: every recording operation is a relaxed bool
//    load and a predicted branch when the registry is disabled (the
//    default).  Handle lookup (by name, under a mutex) is a cold path done
//    once per call site via a function-local static.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lumi::obs {

/// Monotonic counter.  add() is wait-free: one relaxed fetch_add.
class Counter {
 public:
  void add(long long v = 1) noexcept;
  /// Current total (snapshot path; concurrent adds may or may not be
  /// included — telemetry, not synchronization).
  long long value() const noexcept;

 private:
  friend class Registry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<long long> v_{0};
  const std::atomic<bool>* enabled_;
};

/// Last-value / running-max gauge.  A single atomic: gauge writers are rare
/// (per-campaign, per-flush), never per-job.
class Gauge {
 public:
  void set(long long v) noexcept;
  long long value() const noexcept;

 private:
  friend class Registry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  std::atomic<long long> v_{0};
  const std::atomic<bool>* enabled_;
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i] (first
/// matching bound wins); one overflow bucket past the last bound.  The
/// bounds are fixed at creation; each bucket count and the exact sample sum
/// is one atomic, like Counter.
class Histogram {
 public:
  void record(long long sample) noexcept;

  const std::vector<long long>& bounds() const { return bounds_; }
  /// Aggregated per-bucket counts (size bounds().size() + 1) — snapshot path.
  std::vector<long long> counts() const;
  long long count() const noexcept;
  long long sum() const noexcept;

 private:
  friend class Registry;
  Histogram(const std::atomic<bool>* enabled, std::vector<long long> bounds);
  std::vector<long long> bounds_;
  std::vector<std::atomic<long long>> buckets_;  ///< bounds_.size() + 1
  std::atomic<long long> sum_{0};
  const std::atomic<bool>* enabled_;
};

/// One aggregated scalar metric in a snapshot.
struct MetricValue {
  std::string name;
  long long value = 0;
};

/// One aggregated histogram in a snapshot.
struct HistogramValue {
  std::string name;
  std::vector<long long> bounds;  ///< upper-inclusive bucket bounds
  std::vector<long long> counts;  ///< bounds.size() + 1 (overflow last)
  long long count = 0;
  long long sum = 0;
};

/// Point-in-time aggregation of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<MetricValue> counters;
  std::vector<MetricValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of a named counter/gauge, 0 when absent (meter convenience).
  long long counter_or(const std::string& name, long long fallback = 0) const;
  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix` (e.g. a family of per-index counters).
  long long counter_prefix_sum(const std::string& prefix, const std::string& suffix) const;
};

/// The process-wide registry.  Handles returned by counter()/gauge()/
/// histogram() are stable for the life of the process (metrics are never
/// unregistered), so call sites cache them in function-local statics.
class Registry {
 public:
  static Registry& global();

  /// Telemetry master switch; disabled (the default) makes every recording
  /// operation a load+branch.  Flip only while no instrumented code runs
  /// (CLIs flip it before starting a campaign).
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Get-or-create by name.  Creating is locked (cold); recording is not.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` must be non-empty and strictly ascending; a second lookup of
  /// the same name ignores its `bounds` argument (first registration wins).
  Histogram& histogram(const std::string& name, std::vector<long long> bounds);

  /// Aggregates every metric.  Safe to call while recorders run: counts are
  /// atomic reads (telemetry-consistent, not a linearization).
  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (names stay registered).  For tests and benches
  /// that need per-phase deltas; call only while no instrumented code runs.
  void reset();

 private:
  Registry() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< guards the maps (creation + snapshot/reset)
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Renders a snapshot as the stable metrics JSON schema documented in
/// docs/FORMATS.md#metrics-json: {"lumi_metrics": 1, "counters": {...},
/// "gauges": {...}, "histograms": {...}} with keys in sorted order.
std::string metrics_json(const MetricsSnapshot& snapshot);

}  // namespace lumi::obs
