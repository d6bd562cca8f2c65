#include "src/analysis/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/obs/metrics_registry.h"

namespace speedscale::analysis {

namespace {
// Queue latency buckets, in microseconds: sub-µs dispatch through 1 s stalls.
const std::vector<double> kLatencyBoundsUs = {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6};
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads)
    : tasks_metric_(obs::registry().counter("analysis.thread_pool.tasks")),
      failures_metric_(obs::registry().counter("analysis.thread_pool.task_failures")),
      dropped_errors_metric_(obs::registry().counter("analysis.thread_pool.dropped_errors")),
      queue_depth_metric_(obs::registry().gauge("analysis.thread_pool.queue_depth")),
      latency_metric_(
          obs::registry().histogram("analysis.thread_pool.task_latency_us", kLatencyBoundsUs)) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
  // A first_error_ never collected by wait_idle() cannot be rethrown here
  // (destructors must not throw) — but it must not vanish silently: report
  // it on stderr and count it.  The counter add is deliberately ungated so
  // the drop is visible even with the hot-path metrics switched off.
  if (first_error_) {
    try {
      std::rethrow_exception(first_error_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ThreadPool: dropping uncollected task failure at teardown: %s\n",
                   e.what());
    } catch (...) {
      std::fprintf(stderr,
                   "ThreadPool: dropping uncollected non-std task failure at teardown\n");
    }
    dropped_errors_metric_.add(1);
  }
}

void ThreadPool::submit(std::function<void()> task) {
  const bool metered = obs::metrics_enabled();
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push({std::move(task),
                 metered ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{}});
    ++in_flight_;
    if (metered) {
      tasks_metric_.add(1);
      queue_depth_metric_.set(static_cast<double>(tasks_.size()));
    }
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  // in_flight_ counts queued AND running tasks, and a nested submit() bumps
  // it before the submitting task's own decrement — so in_flight_ == 0 does
  // imply the queue is empty.  The queue check makes that invariant explicit
  // rather than implicit: if the accounting is ever broken, wait_idle()
  // blocks (and the regression test fails) instead of returning with work
  // still queued.
  cv_idle_.wait(lk, [this] { return in_flight_ == 0 && tasks_.empty(); });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lk.unlock();
    std::rethrow_exception(err);
  }
}

std::size_t ThreadPool::failed_tasks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_tasks_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      if (obs::metrics_enabled()) {
        queue_depth_metric_.set(static_cast<double>(tasks_.size()));
      }
    }
    if (obs::metrics_enabled() &&
        task.enqueued != std::chrono::steady_clock::time_point{}) {
      const auto waited = std::chrono::steady_clock::now() - task.enqueued;
      latency_metric_.observe(
          std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(waited).count());
    }
    std::exception_ptr err;
    try {
      task.fn();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (err) {
        ++failed_tasks_;
        if (!first_error_) first_error_ = err;
        if (obs::metrics_enabled()) failures_metric_.add(1);
      }
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([i, &body] { body(i); });
  }
  pool.wait_idle();
}

}  // namespace speedscale::analysis
