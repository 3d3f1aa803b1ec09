// Live campaign progress meter: a sampling thread that periodically reads
// the metrics registry (campaign.jobs_done, campaign.cells_done, resume
// skips) and redraws one stderr status line — cells done/total, jobs
// done/total, jobs/s and ETA.
//
// Strictly a telemetry *consumer*: it never touches campaign state, so it
// cannot perturb results (the obs-isolation contract).  The CLIs construct
// it around the blocking run call; it auto-disables when stderr is not a
// TTY (CI logs stay clean) and under --quiet.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <mutex>
#include <thread>

namespace lumi::obs {

class ProgressMeter {
 public:
  struct Options {
    std::size_t total_jobs = 0;
    std::size_t total_cells = 0;
    double interval_seconds = 0.5;
    /// Start even when stderr is not a TTY (tests; --progress).
    bool force = false;
    std::FILE* out = nullptr;  ///< null = stderr
  };

  /// Starts the sampling thread iff `force` or stderr is a TTY.  Requires
  /// the metrics registry to be enabled to see nonzero counters (the CLIs
  /// enable it whenever the meter runs).
  explicit ProgressMeter(const Options& options);
  /// Stops the thread, clears the status line, then prints one final
  /// newline-terminated summary (cells, jobs, wall, rate) — even when the
  /// live line never ran because stderr is not a TTY, so CI logs still
  /// capture the totals.  The CLIs skip constructing the meter under
  /// --quiet, which therefore also suppresses the summary.
  ~ProgressMeter();

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  bool active() const { return thread_.joinable(); }

  static bool stderr_is_tty();

 private:
  void loop();
  void render_line();
  void print_summary();

  Options options_;
  std::FILE* out_ = nullptr;
  long long jobs_at_start_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t last_line_len_ = 0;
  std::thread thread_;
};

}  // namespace lumi::obs
