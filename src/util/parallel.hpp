// The library's one parallel fan-out primitive.
//
// parallel_for(n, threads, fn) runs fn(i) exactly once for every i in
// [0, n) on up to min(threads, n, hardware_concurrency) threads, and
// returns only after every index has finished.  Training (66 independent
// sub-model fits), the batch engine, the sweep driver, evaluate_configs
// and explore scoring all fan out through it.
//
//   * The calling thread always takes part: it claims indices off the
//     same atomic counter as the helpers.  A call therefore completes even
//     when no helper ever starts — a busy pool (nested or concurrent
//     calls), a failed submit, or a helper task lost before it ran only
//     costs parallelism, never an index and never a hang.
//   * Helpers come from one lazily created, process-lifetime ThreadPool
//     (hardware_concurrency - 1 workers), joined at static destruction,
//     so repeated calls never spawn or join threads.
//   * If any fn(i) throws, every other index still runs, then the first
//     exception (by completion time) is rethrown with its original type.
//   * With threads <= 1, n <= 1 or a single-core host, fn runs inline on
//     the caller, in index order, and the pool is never created.
//
// Callers with more items than threads fan out over chunk indices,
// parallel_for(n_chunks, parallel_width(n, threads), fn(c)); indices are
// claimed in ascending order, and a chunk's state is local to fn(c).
// Only bench_sim_throughput's private-memo probe fans out over worker
// slots, because each slot owns a private structural cache.
#pragma once

#include <cstddef>
#include <functional>

namespace autopower::util {

/// Threads parallel_for(n, threads, ...) runs on:
/// min(threads, n, hardware_concurrency), and at least 1.
[[nodiscard]] std::size_t parallel_width(std::size_t n, std::size_t threads);

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace autopower::util
