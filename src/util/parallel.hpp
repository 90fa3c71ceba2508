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
// Callers that need per-thread state (a sweep worker's chunk buffers, a
// shard's ranker) size their worker slots with parallel_width() and fan
// out over the slots, each slot pulling work off the caller's own shared
// counter; a slot no helper reached is run by the caller and finds the
// work drained.
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
