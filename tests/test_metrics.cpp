#include "src/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace lumi::obs {
namespace {

/// Enables the global registry for one test and restores the disabled
/// default (plus zeroed values) on the way out, so tests cannot leak counts
/// into each other.
struct EnabledRegistry {
  EnabledRegistry() {
    Registry::global().reset();
    Registry::global().set_enabled(true);
  }
  ~EnabledRegistry() {
    Registry::global().set_enabled(false);
    Registry::global().reset();
  }
  Registry& operator*() { return Registry::global(); }
  Registry* operator->() { return &Registry::global(); }
};

// --- correctness under concurrency ------------------------------------------

TEST(Metrics, ConcurrentIncrementsSumExactly) {
  EnabledRegistry reg;
  Counter& c = reg->counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  // Relaxed adds still sum exactly once all writers joined: every increment
  // lands, in some order, and value() reads the total.
  EXPECT_EQ(c.value(), static_cast<long long>(kThreads) * kPerThread);
}

TEST(Metrics, ConcurrentHistogramCountsSumExactly) {
  EnabledRegistry reg;
  Histogram& h = reg->histogram("test.hist.concurrent", {10, 100});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.record(i % 3 == 0 ? 5 : 50);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<long long>(kThreads) * kPerThread);
  const std::vector<long long> counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(counts[0] + counts[1] + counts[2], h.count());
  EXPECT_EQ(counts[2], 0);  // nothing past the last bound
}

// --- disabled registry is observably inert -----------------------------------

TEST(Metrics, DisabledRegistryRecordsNothing) {
  Registry& reg = Registry::global();
  reg.reset();
  ASSERT_FALSE(reg.enabled());  // the default, restored by every test above
  Counter& c = reg.counter("test.disabled.counter");
  Gauge& g = reg.gauge("test.disabled.gauge");
  Histogram& h = reg.histogram("test.disabled.hist", {5});
  c.add(42);
  g.set(7);
  h.record(3);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  const MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_or("test.disabled.counter", -1), 0);  // registered, zero
  reg.reset();
}

// --- histogram semantics ------------------------------------------------------

TEST(Metrics, HistogramBucketBoundsAreUpperInclusive) {
  EnabledRegistry reg;
  Histogram& h = reg->histogram("test.hist.bounds", {10, 20});
  for (long long sample : {-3, 10, 11, 20, 21, 1'000'000}) h.record(sample);
  const std::vector<long long> counts = h.counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2);  // -3, 10
  EXPECT_EQ(counts[1], 2);  // 11, 20
  EXPECT_EQ(counts[2], 2);  // 21, 1e6 overflow
  EXPECT_EQ(h.sum(), -3 + 10 + 11 + 20 + 21 + 1'000'000);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EnabledRegistry reg;
  EXPECT_THROW(reg->histogram("test.hist.empty", {}), std::invalid_argument);
  EXPECT_THROW(reg->histogram("test.hist.unsorted", {5, 3}), std::invalid_argument);
  EXPECT_THROW(reg->histogram("test.hist.dup", {5, 5}), std::invalid_argument);
}

// --- registry handles and snapshots ------------------------------------------

TEST(Metrics, HandlesAreStablePerName) {
  EnabledRegistry reg;
  Counter& a = reg->counter("test.same");
  Counter& b = reg->counter("test.same");
  EXPECT_EQ(&a, &b);
  // Second histogram registration keeps the first bounds.
  Histogram& h1 = reg->histogram("test.hist.first", {1, 2});
  Histogram& h2 = reg->histogram("test.hist.first", {99});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<long long>{1, 2}));
}

TEST(Metrics, SnapshotHelpersAndPrefixSum) {
  EnabledRegistry reg;
  reg->counter("test.worker.0.hits").add(3);
  reg->counter("test.worker.1.hits").add(4);
  reg->counter("test.worker.1.misses").add(9);
  const MetricsSnapshot s = reg->snapshot();
  EXPECT_EQ(s.counter_or("test.worker.0.hits"), 3);
  EXPECT_EQ(s.counter_or("absent", -5), -5);
  EXPECT_EQ(s.counter_prefix_sum("test.worker.", ".hits"), 7);
  EXPECT_EQ(s.counter_prefix_sum("test.worker.", ".misses"), 9);
  EXPECT_EQ(s.counter_prefix_sum("nope.", ".hits"), 0);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations) {
  EnabledRegistry reg;
  Counter& c = reg->counter("test.reset");
  c.add(5);
  reg->reset();
  EXPECT_EQ(c.value(), 0);
  const MetricsSnapshot s = reg->snapshot();
  EXPECT_EQ(s.counter_or("test.reset", -1), 0);  // still present, zero
}

TEST(Metrics, JsonSchemaShape) {
  EnabledRegistry reg;
  reg->counter("b.count").add(2);
  reg->counter("a.count").add(1);
  reg->gauge("g.max").set(3);
  reg->histogram("h.ms", {1, 10}).record(4);
  const std::string json = metrics_json(reg->snapshot());
  EXPECT_NE(json.find("\"lumi_metrics\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"g.max\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\": [1, 10]"), std::string::npos);
  EXPECT_LT(json.find("\"a.count\""), json.find("\"b.count\""));  // sorted keys
}

}  // namespace
}  // namespace lumi::obs
