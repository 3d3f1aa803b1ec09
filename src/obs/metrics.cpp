#include "src/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/core/text.hpp"

namespace lumi::obs {

void Counter::add(long long v) noexcept {
  // Telemetry counter: no other memory is published under it, and snapshot()
  // only needs an eventually-complete sum.  lumi-lint: allow(relaxed-atomic)
  if (!enabled_->load(std::memory_order_relaxed)) return;
  // lumi-lint: allow(relaxed-atomic) — same proof as the enabled check
  v_.fetch_add(v, std::memory_order_relaxed);
}

long long Counter::value() const noexcept {
  // lumi-lint: allow(relaxed-atomic) — snapshot read
  return v_.load(std::memory_order_relaxed);
}

void Gauge::set(long long v) noexcept {
  // lumi-lint: allow(relaxed-atomic) — telemetry value, no ordering consumers
  if (!enabled_->load(std::memory_order_relaxed)) return;
  // lumi-lint: allow(relaxed-atomic) — same proof
  v_.store(v, std::memory_order_relaxed);
}

long long Gauge::value() const noexcept {
  // lumi-lint: allow(relaxed-atomic) — snapshot read
  return v_.load(std::memory_order_relaxed);
}

Histogram::Histogram(const std::atomic<bool>* enabled, std::vector<long long> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1), enabled_(enabled) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: bounds must be non-empty");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
  }
}

void Histogram::record(long long sample) noexcept {
  // Telemetry histogram: the atomics carry no ordering obligations; snapshot
  // reads whatever has landed.  lumi-lint: allow(relaxed-atomic)
  if (!enabled_->load(std::memory_order_relaxed)) return;
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), sample) - bounds_.begin());
  // lumi-lint: allow(relaxed-atomic) — same proof
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  // lumi-lint: allow(relaxed-atomic) — same proof
  sum_.fetch_add(sample, std::memory_order_relaxed);
}

std::vector<long long> Histogram::counts() const {
  std::vector<long long> out;
  out.reserve(buckets_.size());
  for (const std::atomic<long long>& b : buckets_) {
    // lumi-lint: allow(relaxed-atomic) — snapshot read
    out.push_back(b.load(std::memory_order_relaxed));
  }
  return out;
}

long long Histogram::count() const noexcept {
  long long total = 0;
  // lumi-lint: allow(relaxed-atomic) — snapshot read
  for (const std::atomic<long long>& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

long long Histogram::sum() const noexcept {
  // lumi-lint: allow(relaxed-atomic) — snapshot read
  return sum_.load(std::memory_order_relaxed);
}

long long MetricsSnapshot::counter_or(const std::string& name, long long fallback) const {
  for (const MetricValue& m : counters) {
    if (m.name == name) return m.value;
  }
  return fallback;
}

long long MetricsSnapshot::counter_prefix_sum(const std::string& prefix,
                                              const std::string& suffix) const {
  long long total = 0;
  for (const MetricValue& m : counters) {
    if (m.name.size() < prefix.size() + suffix.size()) continue;
    if (m.name.compare(0, prefix.size(), prefix) != 0) continue;
    if (m.name.compare(m.name.size() - suffix.size(), suffix.size(), suffix) != 0) continue;
    total += m.value;
  }
  return total;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot.reset(new Counter(&enabled_));
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot.reset(new Gauge(&enabled_));
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<long long> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    // Construct before inserting: a throwing constructor (bad bounds) must
    // not leave a null entry behind for snapshot()/reset() to trip over.
    std::unique_ptr<Histogram> made(new Histogram(&enabled_, std::move(bounds)));
    it = histograms_.emplace(name, std::move(made)).first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.counters.push_back({name, c->value()});
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.gauges.push_back({name, g->value()});
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.histograms.push_back({name, h->bounds(), h->counts(), h->count(), h->sum()});
  }
  return out;
}

void Registry::reset() {
  std::lock_guard lock(mu_);
  // lumi-lint: allow(relaxed-atomic) — reset of idle telemetry values
  for (auto& [name, c] : counters_) c->v_.store(0, std::memory_order_relaxed);
  // lumi-lint: allow(relaxed-atomic) — same as above
  for (auto& [name, g] : gauges_) g->v_.store(0, std::memory_order_relaxed);
  for (auto& [name, h] : histograms_) {
    // lumi-lint: allow(relaxed-atomic) — same as above
    for (std::atomic<long long>& b : h->buckets_) b.store(0, std::memory_order_relaxed);
    // lumi-lint: allow(relaxed-atomic) — same as above
    h->sum_.store(0, std::memory_order_relaxed);
  }
}

namespace {

void append_scalar_map(std::string& out, const char* key,
                       const std::vector<MetricValue>& values) {
  out += "  \"";
  out += key;
  out += "\": {";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(values[i].name) + "\": " + std::to_string(values[i].value);
  }
  out += values.empty() ? "}" : "\n  }";
}

void append_list(std::string& out, const std::vector<long long>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(v[i]);
  }
  out += ']';
}

}  // namespace

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"lumi_metrics\": 1,\n";
  append_scalar_map(out, "counters", snapshot.counters);
  out += ",\n";
  append_scalar_map(out, "gauges", snapshot.gauges);
  out += ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramValue& h = snapshot.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + json_escape(h.name) + "\": {\"bounds\": ";
    append_list(out, h.bounds);
    out += ", \"counts\": ";
    append_list(out, h.counts);
    out += ", \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum) + "}";
  }
  out += snapshot.histograms.empty() ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

}  // namespace lumi::obs
