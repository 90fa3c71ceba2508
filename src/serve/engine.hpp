// Batch inference engine — answers a request list in one batched pass.
//
// One engine wraps a PUBLISHED immutable model snapshot (any
// shared_ptr<const AutoPowerModel>), a sharded response memo and one
// PerfSimulator.  The snapshot is swappable (RCU by shared_ptr):
// swap_model() atomically publishes a new handle, each run() pins the
// snapshot once at entry, and in-flight batches finish on the handle
// they pinned — so a hot-swap never tears a batch, and requests admitted
// before the swap stay bit-identical to the old model's output.  Every
// response-memo key is qualified by the pinned model's archive
// fingerprint, so an entry filled under one model can never be served
// for another — the stale-model hazard hot-swap would otherwise create.
//
// run() answers response-memo hits — exact repeats of (config, workload,
// mode) — without touching the model.  Repeats of a missed key within
// one batch are computed once: the first request of the key leads, and
// each repeat copies its response.  The leaders (and every trace
// request) are split into one chunk per worker, capped at kTileRows, and
// fanned out as util::parallel_for over chunk indices: a chunk simulates
// each request's (config, workload) and makes ONE predict_batch call
// over its total and per_component contexts (a trace request runs its
// own predict_trace).  Responses come back IN INPUT ORDER.  Every chunk
// shares the engine's one simulator and its util::StructuralSimCache, so
// the expensive cache/TLB/branch structural measurements are computed
// once per distinct sub-key across ALL threads and ALL modes — including
// kTrace.  Both the memo and the structural cache persist across run()
// calls.
//
// Determinism contract: the simulator, feature extraction, and the model
// are all deterministic, and element i of predict_batch does not depend
// on the rest of the batch, so `run(reqs)` is bit-identical for any
// thread count and any chunking — including the serial predict loop it
// replaces.  A request that fails (unknown config/workload, a simulate
// or predict exception, an untrained model) yields ok=false with the
// error message; a lookup or simulate failure fails only its own
// request (and its in-batch repeats), a predict_batch failure only its
// chunk, and neither aborts the rest of the batch, at any thread count.
//
// Multi-caller contract (audited for the serving daemon, where several
// connection handlers share one engine): run() is safe to call from
// multiple threads concurrently.  Each call owns its response vector
// (helper threads come from parallel_for's shared pool, where the calling
// thread always takes part, so concurrent calls never wait on each
// other's helpers); the state shared across calls — the simulator (no
// mutable state of its own), the response memo (mutex per shard), the
// StructuralSimCache, and the hit/miss atomics — is individually
// thread-safe, and each model snapshot is immutable (swap_model()
// replaces the published handle; it never mutates a model).
// Concurrent calls therefore stay bit-identical per call; only the
// aggregate cache counters interleave.  (The daemon still funnels
// requests through ONE dispatcher call at a time — not for safety, but
// so cross-client coalescing fills the same predict_batch calls.)
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/autopower.hpp"
#include "sim/perfsim.hpp"
#include "util/metrics.hpp"
#include "util/structural_cache.hpp"

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
};

/// Hit/miss counters of the response memo (see BatchEngine::response_stats).
struct ResponseStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
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

  /// The structural sub-simulation cache under the engine's simulator:
  /// the one cache below the response memo.
  [[nodiscard]] const util::StructuralSimCache& cache() const noexcept {
    return *sim_.structural_cache();
  }
  /// Hit/miss counters of the response memo, which holds every
  /// successful total and per_component response per (model fingerprint,
  /// config, workload, mode); trace responses are never memoised (large
  /// payload, rarely repeated) and count neither.  A miss is counted
  /// only by the winning insert, a request that computes a response
  /// another request published first counts a hit, and an in-batch
  /// repeat of a memoised leader counts a hit, so after run() returns
  /// `misses == memoised responses` exactly — as long as every request
  /// succeeded.  Failed responses are NEVER memoised (a
  /// transient fault must not poison the memo) and each failed request
  /// counts one miss, so in general
  /// `misses == memoised responses + failed requests` and
  /// `hits + misses == memo lookups` stays exact.
  [[nodiscard]] ResponseStats response_stats() const noexcept;

 private:
  struct ResponseShard {
    std::mutex mu;
    std::unordered_map<std::string, BatchResponse> map;
  };
  /// A request the memo did not answer; `key` is empty for kTrace.
  struct Miss {
    std::size_t index = 0;
    std::string key;
  };

  [[nodiscard]] ResponseShard& shard_for(const std::string& key) noexcept;
  /// Copies the memoised response for `key` into `out`; false on a miss.
  [[nodiscard]] bool lookup(const std::string& key, BatchResponse& out);
  /// Simulates and predicts one chunk of misses into their response
  /// slots, then memoises the chunk's responses.
  void evaluate_chunk(std::span<const BatchRequest> requests,
                      std::span<Miss> chunk,
                      const core::AutoPowerModel& model,
                      std::span<BatchResponse> responses);
  /// Files a computed response under `key` and counts its hit or miss.
  void memoise(std::string key, const BatchResponse& response);
  /// Counts one response-memo hit or miss.
  void count_lookup(bool hit);
  /// Post-run bookkeeping: failed-request count and the structural-cache
  /// gauge export (no-op while metrics are disabled).
  void finish_run(std::span<const BatchResponse> responses);

  /// Shard count of the response memo.
  static constexpr std::size_t kMemoShards = 16;

  // The published snapshot, guarded by a tiny mutex (a swap and a pin are
  // both a shared_ptr copy; never held across any compute).
  mutable std::mutex model_mu_;
  std::shared_ptr<const core::AutoPowerModel> model_;
  EngineOptions options_;
  /// Shared by every chunk of every run() call.
  const sim::PerfSimulator sim_;
  std::array<ResponseShard, kMemoShards> response_shards_;
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
