// Sharded (model fingerprint, config, workload) → EvalContext cache.
//
// Building an evaluation context — looking up the configuration and
// workload, extracting program-level features, and above all running
// `PerfSimulator::simulate` — dominates per-query cost and is fully
// deterministic, so the serving layer memoises it here.  Callers pass the
// simulator to fill a miss with (one simulator may serve every thread),
// and the cache publishes the resulting context as an immutable
// `shared_ptr<const EvalContext>` that any thread may read.
//
// Sharding: keys hash onto `shards` independently-locked maps, so lookups
// of different keys rarely contend.  On a miss the context is computed
// OUTSIDE the shard lock (two threads may transiently duplicate the same
// deterministic computation; the first insert wins — both observe one
// published value, and results are bit-identical either way).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/sample.hpp"
#include "sim/perfsim.hpp"

namespace autopower::serve {

class EvalCache {
 public:
  /// `shards` is clamped to at least 1.
  explicit EvalCache(std::size_t shards = 16);

  /// Returns the cached context for (model_fingerprint, config, workload),
  /// computing it with `sim` on a miss.  Throws util::Error for unknown
  /// names.  The fingerprint qualifies the key so entries filled while one
  /// model was published can never be served for another after a hot-swap
  /// (contexts are model-independent today, but the cache sits on the
  /// serving path and the keying contract is: no memo outlives the model
  /// that filled it).
  [[nodiscard]] std::shared_ptr<const core::EvalContext> get_or_compute(
      std::string_view model_fingerprint, const std::string& config,
      const std::string& workload, const sim::PerfSimulator& sim);

  /// Relaxed counters: approximate while callers are running, exact once
  /// they have quiesced.  A miss is counted only by the winning insert,
  /// so `misses == contexts created` and `hits + misses == successful
  /// lookups`; a thread that loses a cold-key race counts a hit (it
  /// adopts the published context, even though it transiently redid the
  /// simulation).  Lookups that throw (unknown names) count neither.
  /// Every increment is mirrored into the process-wide MetricsRegistry
  /// as "serve.eval_cache.hits" / ".misses".
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Number of cached contexts across all shards.
  [[nodiscard]] std::size_t size() const;

  void clear();

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const core::EvalContext>>
        map;
  };

  [[nodiscard]] Shard& shard_for(std::string_view key) noexcept;

  std::deque<Shard> shards_;  // deque: Shard holds a mutex, must not move
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace autopower::serve
