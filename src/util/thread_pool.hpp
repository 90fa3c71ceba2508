// Fixed-size worker pool with a FIFO work queue and graceful shutdown.
//
// The helper-thread source behind util::parallel_for (util/parallel.hpp),
// which owns the one process-lifetime instance; library code fans out
// through parallel_for, never through a pool of its own.  Semantics:
//
//   * submit() enqueues a task; it throws once shutdown has begun.
//   * shutdown() stops accepting new work, lets the workers DRAIN every
//     task already queued, then joins them (graceful, not abortive).
//   * A throwing task never takes a worker down: the worker swallows the
//     failure and keeps draining, so sibling tasks — including those still
//     queued during a graceful shutdown drain — always run.  Callers that
//     must not lose work track completion themselves (parallel_for counts
//     finished indices, not finished tasks).
//
// The destructor calls shutdown(), so pending work always completes.
// Every public member is safe to call from multiple threads concurrently:
// submit/shutdown take the one internal mutex, so concurrent submits
// interleave without losing or duplicating tasks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace autopower::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task.  Throws util::Error if shutdown() has been called.
  void submit(std::function<void()> task);

  /// Stops accepting work, drains the queue, joins the workers.  Safe to
  /// call more than once.
  void shutdown();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< signalled when work arrives / stops
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool accepting_ = true;  ///< false once shutdown() begins
};

}  // namespace autopower::util
