#include "util/thread_pool.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace autopower::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::submit(std::function<void()> task) {
  AP_ASSERT_MSG(task != nullptr, "ThreadPool::submit: empty task");
  // Stands in for the queue allocation failing under memory pressure.
  AUTOPOWER_FAULT_POINT("util.thread_pool.submit");
  {
    std::lock_guard lock(mu_);
    if (!accepting_) {
      throw Error("ThreadPool::submit after shutdown");
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || !accepting_; });
      // Graceful shutdown: keep draining until the queue is empty.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A throwing task must not take the worker (and the process) down —
    // sibling tasks, including those queued behind it during a graceful
    // shutdown drain, must still run.  Nothing needs recording:
    // parallel_for's helper tasks forward fn's failures to their caller
    // themselves, and it counts finished indices, so a task lost here
    // loses no work.
    try {
      AUTOPOWER_FAULT_POINT("util.thread_pool.run_task");
      task();
    } catch (...) {
    }
  }
}

}  // namespace autopower::util
