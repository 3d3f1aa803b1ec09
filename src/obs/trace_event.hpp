// Span tracing in the Chrome trace_event format: RAII Span objects record
// (name, category, start, duration, thread) tuples into an installed
// TraceWriter, which renders them as the JSON object format
// ({"traceEvents":[{"ph":"X",...}]}) that chrome://tracing and Perfetto
// open directly.
//
// Like the metrics registry (metrics.hpp), tracing is result-inert by
// construction: spans read the clock and buffer telemetry, they never feed
// results (enforced by the `obs-isolation` lint rule and pinned by
// tests/test_obs_identity.cpp).  With no writer installed — the default —
// constructing a Span is a single relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lumi::obs {

/// Collects trace events and writes them as one JSON document.  Thread-safe:
/// events append under a mutex (span granularity is batches and checkpoint
/// flushes, not per-instant work, so contention is negligible next to the
/// runs the spans measure).
class TraceWriter {
 public:
  explicit TraceWriter(std::string path);
  /// Uninstalls itself if still installed (spans in flight must have ended:
  /// callers flush after the campaign has joined its threads).
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Records one complete ("ph":"X") event.  Start and end are steady-clock
  /// points; both are rebased to the writer's epoch and floored to whole
  /// microseconds at flush — flooring the two endpoints (rather than start
  /// and duration independently) keeps parent/child nesting exact in the
  /// rendered integers.
  void add_complete(const char* name, const char* cat,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end, std::uint32_t tid,
                    const char* arg_key, long long arg_value);

  /// Serializes every buffered event to `path` as trace-event JSON; false on
  /// I/O failure.  Call after all spans have ended (campaign returned).
  bool flush();

  std::size_t event_count() const;

  /// Installs `w` as the process-wide span sink (nullptr uninstalls).  Flip
  /// only while no spans are live — CLIs install before starting a
  /// campaign and uninstall after it returns.
  static void install(TraceWriter* w);
  static TraceWriter* current();

  /// Small dense id of the calling thread (for the trace "tid" field).
  static std::uint32_t thread_id();

 private:
  struct Event {
    const char* name;
    const char* cat;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
    std::uint32_t tid;
    const char* arg_key;  ///< nullptr: no args object
    long long arg_value;
  };

  const std::string path_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span: records a complete event covering its own lifetime into the
/// installed TraceWriter, or does nothing when none is installed.  `name`
/// and `cat` must be string literals (or otherwise outlive the writer's
/// flush) — spans never copy them.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "lumi") noexcept
      : writer_(TraceWriter::current()), name_(name), cat_(cat) {
    if (writer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  /// Attaches one integer argument rendered as {"args":{key:value}}.  The
  /// key must be a string literal.
  void set_arg(const char* key, long long value) noexcept {
    arg_key_ = key;
    arg_value_ = value;
  }

  ~Span() {
    if (writer_ == nullptr) return;
    writer_->add_complete(name_, cat_, start_, std::chrono::steady_clock::now(),
                          TraceWriter::thread_id(), arg_key_, arg_value_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceWriter* writer_;
  const char* name_;
  const char* cat_;
  const char* arg_key_ = nullptr;
  long long arg_value_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lumi::obs
