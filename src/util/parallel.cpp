#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "util/thread_pool.hpp"

namespace autopower::util {

namespace {

std::size_t hardware_threads() {
  static const std::size_t n =
      std::max(1u, std::thread::hardware_concurrency());
  return n;
}

ThreadPool& helper_pool() {
  static ThreadPool pool(hardware_threads() - 1);
  return pool;
}

// One parallel_for call's shared state.  Helper tasks hold it by
// shared_ptr, so a helper that only starts after the call has returned
// (it sat queued behind other work) finds the counter exhausted and
// exits without touching `fn`, which lives on the caller's stack.
class Batch {
 public:
  Batch(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n_(n), fn_(fn) {}

  // Claims and runs indices until none are left.
  void drain() {
    for (std::size_t i = next_.fetch_add(1); i < n_; i = next_.fetch_add(1)) {
      std::exception_ptr error;
      try {
        fn_(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(mu_);
      if (error && !error_) error_ = std::move(error);
      if (++done_ == n_) done_cv_.notify_all();
    }
  }

  // Blocks until every index has finished; rethrows the first failure.
  void wait() {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [this] { return done_ == n_; });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  const std::size_t n_;
  const std::function<void(std::size_t)>& fn_;
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t done_ = 0;      ///< finished indices; guarded by mu_
  std::exception_ptr error_;  ///< first failure; guarded by mu_
};

}  // namespace

std::size_t parallel_width(std::size_t n, std::size_t threads) {
  return std::max<std::size_t>(1, std::min({threads, n, hardware_threads()}));
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = parallel_width(n, threads);
  const auto batch = std::make_shared<Batch>(n, fn);
  try {
    for (std::size_t h = 1; h < workers; ++h) {
      helper_pool().submit([batch] { batch->drain(); });
    }
  } catch (...) {
    // A helper that cannot be queued costs parallelism, not work: the
    // caller drains whatever it would have claimed.
  }
  batch->drain();
  batch->wait();
}

}  // namespace autopower::util
