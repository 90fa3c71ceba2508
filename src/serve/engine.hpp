// Batch inference engine — fans a request list out via util::parallel_for.
//
// One engine wraps a PUBLISHED immutable model snapshot (any
// shared_ptr<const AutoPowerModel>) plus three sharded memo layers.  The
// snapshot is swappable (RCU by shared_ptr): swap_model() atomically
// publishes a new handle, each run() pins the snapshot once at entry,
// and in-flight batches finish on the handle they pinned — so a hot-swap
// never tears a batch, and requests admitted before the swap stay
// bit-identical to the old model's output.  Every memo key
// (response memo, EvalCache) is qualified by the pinned model's archive
// fingerprint, so entries filled under one model can never be served for
// another — the stale-model hazard hot-swap would otherwise create.
// run() executes every request and returns responses IN INPUT ORDER; the
// serve::EvalCache deduplicates (config, workload) simulations and the
// response memo answers exact repeat queries — (config, workload, mode) —
// without touching the model at all.  Underneath both, every worker
// shares the engine's one PerfSimulator and its util::StructuralSimCache,
// so the expensive cache/TLB/branch structural measurements are computed
// once per distinct sub-key across ALL workers and ALL modes — including
// kTrace.  All layers persist across run() calls.
//
// Determinism contract: the simulator, feature extraction, and the model
// are all deterministic, so `run(reqs)` is bit-identical for any thread
// count — including the serial `predict` loop it replaces.  A request
// that fails (unknown config/workload, untrained model, or any exception
// escaping the per-request path) yields ok=false with the error message;
// it never aborts the rest of the batch, at any thread count.
//
// Multi-caller contract (audited for the serving daemon, where several
// connection handlers share one engine): run() is safe to call from
// multiple threads concurrently.  Each call owns its response vector
// (helper threads come from parallel_for's shared pool, where the calling
// thread always takes part, so concurrent calls never wait on each
// other's helpers); the state shared across calls — the simulator (no
// mutable state of its own), the EvalCache (sharded, internally locked),
// the response memo (mutex per shard), the StructuralSimCache, and the
// hit/miss atomics — is individually thread-safe, and each model
// snapshot is immutable (swap_model() replaces the published handle; it
// never mutates a model).
// Concurrent calls therefore stay bit-identical per call; only the
// aggregate cache counters interleave.  (The daemon still funnels
// requests through ONE dispatcher call at a time — not for safety, but
// so cross-client coalescing actually shares batch overhead.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/autopower.hpp"
#include "serve/eval_cache.hpp"
#include "sim/perfsim.hpp"
#include "util/metrics.hpp"

namespace autopower::serve {

/// What a batch request asks the model for.
enum class PredictMode {
  kTotal,         ///< total core power (mW)
  kPerComponent,  ///< per-component, per-group breakdown
  kTrace,         ///< per-window total power over the whole run
};

[[nodiscard]] std::string_view to_string(PredictMode mode) noexcept;
/// Parses "total" | "per_component" | "trace"; throws on anything else.
[[nodiscard]] PredictMode mode_from_string(std::string_view text);

struct BatchRequest {
  std::string config;    ///< "C1".."C15"
  std::string workload;  ///< e.g. "dhrystone", "gemm"
  PredictMode mode = PredictMode::kTotal;
};

/// Per-component breakdown row of a kPerComponent response.
struct ComponentBreakdown {
  std::string component;
  double clock_mw = 0.0;
  double sram_mw = 0.0;
  double logic_mw = 0.0;
  double total_mw = 0.0;
};

struct BatchResponse {
  std::size_t index = 0;  ///< position in the request list
  std::string config;
  std::string workload;
  PredictMode mode = PredictMode::kTotal;
  bool ok = false;
  std::string error;                           ///< set when !ok
  double total_mw = 0.0;                       ///< all modes
  std::vector<ComponentBreakdown> components;  ///< kPerComponent only
  std::vector<double> trace_mw;                ///< kTrace only
};

struct EngineOptions {
  std::size_t threads = 1;
  /// Memoise whole responses per (config, workload, mode).  The model is
  /// immutable and every pipeline stage is deterministic, so a repeated
  /// query can be answered straight from the memo.  Trace responses are
  /// never memoised (large payload, rarely repeated).
  bool memoize_responses = true;
};

class BatchEngine {
 public:
  explicit BatchEngine(std::shared_ptr<const core::AutoPowerModel> model,
                       EngineOptions options = {});

  /// Runs every request; responses are returned in input order.  The
  /// published model snapshot is pinned ONCE at entry: the whole batch is
  /// evaluated against one model even if swap_model() lands mid-run.
  [[nodiscard]] std::vector<BatchResponse> run(
      std::span<const BatchRequest> requests);

  /// Atomically publishes a new model snapshot.  In-flight run() calls
  /// finish on the handle they pinned; subsequent calls see `model`.
  /// Memo entries from previous models stay resident but can never be
  /// served (keys carry the archive fingerprint) — swapping back to a
  /// model with an identical archive re-hits its old entries.
  void swap_model(std::shared_ptr<const core::AutoPowerModel> model);

  /// The currently published model snapshot.
  [[nodiscard]] std::shared_ptr<const core::AutoPowerModel> model() const;
  /// Archive fingerprint of the currently published snapshot.
  [[nodiscard]] std::string model_fingerprint() const;

  [[nodiscard]] const EvalCache& cache() const noexcept { return cache_; }
  /// The structural sub-simulation cache under the engine's simulator.
  [[nodiscard]] const std::shared_ptr<util::StructuralSimCache>&
  structural_cache() const noexcept {
    return sim_.structural_cache();
  }
  /// Hit/miss counters of the response memo (all zero when disabled).
  /// Same corrected semantics as EvalCache::Stats: a miss is counted
  /// only by the winning insert, a lost cold-key race counts a hit, so
  /// after run() returns `misses == memoised responses` exactly — as
  /// long as every request succeeded.  Failed responses are NEVER
  /// memoised (a transient fault must not poison the memo) and each
  /// failed compute counts one miss, so in general
  /// `misses == memoised responses + failed computes` and
  /// `hits + misses == memoised-path lookups` stays exact.
  [[nodiscard]] EvalCache::Stats response_stats() const noexcept;

 private:
  struct ResponseShard {
    std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const BatchResponse>> map;
  };

  [[nodiscard]] BatchResponse handle(const BatchRequest& request,
                                     std::size_t index,
                                     const core::AutoPowerModel& model);
  [[nodiscard]] BatchResponse compute(const BatchRequest& request,
                                      const core::AutoPowerModel& model);
  /// Post-run bookkeeping: failed-request count and the structural-cache
  /// gauge export (no-op while metrics are disabled).
  void finish_run(std::span<const BatchResponse> responses);

  /// Shard count of the EvalCache and of the response memo.
  static constexpr std::size_t kCacheShards = 16;

  // The published snapshot, guarded by a tiny mutex (a swap and a pin are
  // both a shared_ptr copy; never held across any compute).
  mutable std::mutex model_mu_;
  std::shared_ptr<const core::AutoPowerModel> model_;
  EngineOptions options_;
  EvalCache cache_;
  /// Shared by every worker of every run() call.
  const sim::PerfSimulator sim_;
  std::deque<ResponseShard> response_shards_;
  std::atomic<std::uint64_t> response_hits_{0};
  std::atomic<std::uint64_t> response_misses_{0};

  // Process-wide instruments (util/metrics), looked up once at
  // construction; recording is lock-free and a no-op while the registry
  // is disabled.  See DESIGN.md "Metrics inventory" for the names.
  struct Instruments {
    util::Counter& requests;
    util::Counter& failed;
    util::Counter& memo_hits;
    util::Counter& memo_misses;
    util::Histogram& request_latency_ns;
    util::Histogram& queue_wait_ns;
    util::Histogram& batch_size;
  };
  Instruments metrics_;
};

}  // namespace autopower::serve
