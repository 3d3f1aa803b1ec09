#include "src/obs/progress.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/obs/metrics.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace lumi::obs {

bool ProgressMeter::stderr_is_tty() {
#if defined(_WIN32)
  return false;
#else
  return isatty(fileno(stderr)) != 0;
#endif
}

ProgressMeter::ProgressMeter(const Options& options) : options_(options) {
  out_ = options_.out != nullptr ? options_.out : stderr;
  // Baseline and clock are taken even when the live line stays off: the
  // final summary printed by the destructor needs them either way.
  const MetricsSnapshot s = Registry::global().snapshot();
  jobs_at_start_ = s.counter_or("campaign.jobs_done");
  start_ = std::chrono::steady_clock::now();
  if (!options_.force && !stderr_is_tty()) return;
  thread_ = std::thread([this] { loop(); });
}

ProgressMeter::~ProgressMeter() {
  if (thread_.joinable()) {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    render_line();  // final state, then clear
    if (last_line_len_ > 0) {
      std::fprintf(out_, "\r%*s\r", static_cast<int>(last_line_len_), "");
      std::fflush(out_);
    }
  }
  // One newline-terminated summary regardless of TTY, so CI logs capture
  // the totals that the self-erasing live line never leaves behind.
  print_summary();
}

void ProgressMeter::print_summary() {
  const MetricsSnapshot s = Registry::global().snapshot();
  const long long done_new = s.counter_or("campaign.jobs_done") - jobs_at_start_;
  const long long done = done_new + s.counter_or("orchestrate.resume_skips");
  const long long cells = s.counter_or("campaign.cells_done");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const double rate = elapsed > 0 ? static_cast<double>(done_new) / elapsed : 0.0;
  std::fprintf(out_, "campaign: cells %lld/%zu, jobs %lld/%zu in %.2fs (%.1f jobs/s)\n",
               cells, options_.total_cells, done, options_.total_jobs, elapsed, rate);
  std::fflush(out_);
}

void ProgressMeter::loop() {
  std::unique_lock lock(mu_);
  const auto interval =
      std::chrono::duration<double>(std::max(options_.interval_seconds, 0.05));
  while (!stop_) {
    cv_.wait_for(lock, interval);
    if (stop_) return;
    render_line();
  }
}

void ProgressMeter::render_line() {
  const MetricsSnapshot s = Registry::global().snapshot();
  const long long done_new = s.counter_or("campaign.jobs_done") - jobs_at_start_;
  const long long skipped = s.counter_or("orchestrate.resume_skips");
  const long long done = done_new + skipped;
  const long long cells = s.counter_or("campaign.cells_done");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  const double rate = elapsed > 0 ? static_cast<double>(done_new) / elapsed : 0.0;
  const long long remaining =
      std::max<long long>(0, static_cast<long long>(options_.total_jobs) - done);
  const double eta = rate > 0 ? static_cast<double>(remaining) / rate : 0.0;

  char line[256];
  int n = std::snprintf(line, sizeof(line), "cells %lld/%zu  jobs %lld/%zu  %.1f jobs/s  ETA %.0fs",
                        cells, options_.total_cells, done, options_.total_jobs, rate, eta);
  if (n < 0) return;
  const std::size_t len = static_cast<std::size_t>(n);
  // Overwrite the previous line fully: pad with spaces when the new one is
  // shorter so stale characters never linger.
  std::fprintf(out_, "\r%s%*s", line,
               static_cast<int>(last_line_len_ > len ? last_line_len_ - len : 0), "");
  std::fflush(out_);
  last_line_len_ = len;
}

}  // namespace lumi::obs
