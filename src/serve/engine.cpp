#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <unordered_map>
#include <utility>

#include "arch/component.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {

std::string_view to_string(PredictMode mode) noexcept {
  switch (mode) {
    case PredictMode::kTotal: return "total";
    case PredictMode::kPerComponent: return "per_component";
    case PredictMode::kTrace: return "trace";
  }
  return "total";
}

PredictMode mode_from_string(std::string_view text) {
  if (text == "total") return PredictMode::kTotal;
  if (text == "per_component") return PredictMode::kPerComponent;
  if (text == "trace") return PredictMode::kTrace;
  throw util::InvalidArgument(
      "unknown mode: " + std::string(text) +
      " (expected total | per_component | trace)");
}

namespace {

using Clock = std::chrono::steady_clock;

// '\x1f' cannot appear in config/workload names; the mode tag makes the
// key unique per response shape.  The fingerprint leads the key so two
// model snapshots can never alias a memo entry — de-routed, not
// invalidated: swapping back to an identical archive re-hits its entries.
std::string response_key(std::string_view fingerprint,
                         const BatchRequest& request) {
  std::string key;
  key.reserve(fingerprint.size() + 3 + request.config.size() +
              request.workload.size() + 16);
  key += fingerprint;
  key += '\x1f';
  key += request.config;
  key += '\x1f';
  key += request.workload;
  key += '\x1f';
  key += to_string(request.mode);
  return key;
}

/// Misses per chunk.  Every chunk costs one predict_batch call, whose
/// fixed cost is several times a row's, so a batch splits into one chunk
/// per worker; the cap keeps a huge batch in tile-sized chunks that a
/// worker done early can still pick up.
std::size_t chunk_size(std::size_t misses, std::size_t workers) {
  return std::clamp<std::size_t>((misses + workers - 1) / workers, 1,
                                 core::AutoPowerModel::kTileRows);
}

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0u;
}

/// The model context of `request`'s (config, workload); throws
/// util::Error for an unknown name.
core::EvalContext simulate_context(const BatchRequest& request,
                                   const sim::PerfSimulator& sim) {
  core::EvalContext ctx;
  ctx.cfg = &arch::boom_config(request.config);  // static storage
  ctx.workload = request.workload;
  const auto& profile = workload::workload_by_name(request.workload);
  ctx.program = workload::program_features(profile);
  ctx.events = sim.simulate(*ctx.cfg, profile);
  return ctx;
}

/// A kTrace response: one simulate_trace and one predict_trace call.
void fill_trace(BatchResponse& resp, const sim::PerfSimulator& sim,
                const core::AutoPowerModel& model) {
  const auto& cfg = arch::boom_config(resp.config);
  const auto& profile = workload::workload_by_name(resp.workload);
  const auto program = workload::program_features(profile);
  const auto windows = sim.simulate_trace(cfg, profile);
  std::vector<core::EvalContext> contexts(windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    contexts[w].cfg = &cfg;
    contexts[w].workload = resp.workload;
    contexts[w].program = program;
    contexts[w].events = windows[w];
  }
  resp.trace_mw = model.predict_trace(contexts);
  for (double mw : resp.trace_mw) resp.total_mw += mw;
  if (!resp.trace_mw.empty()) {
    resp.total_mw /= static_cast<double>(resp.trace_mw.size());
  }
}

/// A kTotal or kPerComponent response from its predict_batch row.
/// result.total() is bit-identical to predict_total of the same context.
void fill_prediction(BatchResponse& resp, const power::PowerResult& result) {
  if (resp.mode == PredictMode::kPerComponent) {
    resp.components.reserve(result.components.size());
    for (const auto& cp : result.components) {
      resp.components.push_back(
          {std::string(arch::component_name(cp.component)), cp.groups.clock,
           cp.groups.sram, cp.groups.logic(), cp.groups.total()});
    }
  }
  resp.total_mw = result.total();
}

}  // namespace

BatchEngine::BatchEngine(std::shared_ptr<const core::AutoPowerModel> model,
                         EngineOptions options)
    : model_(std::move(model)),
      options_(options),
      metrics_{util::MetricsRegistry::global().counter(
                   "serve.batch.requests"),
               util::MetricsRegistry::global().counter("serve.batch.failed"),
               util::MetricsRegistry::global().counter(
                   "serve.batch.response_memo.hits"),
               util::MetricsRegistry::global().counter(
                   "serve.batch.response_memo.misses"),
               util::MetricsRegistry::global().histogram(
                   "serve.batch.request_latency_ns"),
               util::MetricsRegistry::global().histogram(
                   "serve.batch.queue_wait_ns"),
               util::MetricsRegistry::global().histogram(
                   "serve.batch.batch_size")} {
  AP_REQUIRE(model_ != nullptr, "BatchEngine: null model");
}

ResponseStats BatchEngine::response_stats() const noexcept {
  return {response_hits_.load(std::memory_order_relaxed),
          response_misses_.load(std::memory_order_relaxed)};
}

void BatchEngine::swap_model(
    std::shared_ptr<const core::AutoPowerModel> model) {
  AP_REQUIRE(model != nullptr, "BatchEngine: null model");
  std::lock_guard<std::mutex> lock(model_mu_);
  model_ = std::move(model);
}

std::shared_ptr<const core::AutoPowerModel> BatchEngine::model() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

std::string BatchEngine::model_fingerprint() const {
  return model()->fingerprint();
}

BatchEngine::ResponseShard& BatchEngine::shard_for(
    const std::string& key) noexcept {
  return response_shards_[std::hash<std::string>{}(key) %
                          response_shards_.size()];
}

bool BatchEngine::lookup(const std::string& key, BatchResponse& out) {
  ResponseShard& shard = shard_for(key);
  std::lock_guard lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  out = it->second;
  return true;
}

void BatchEngine::memoise(std::string key, const BatchResponse& response) {
  // Never memoise a failed response: a transient fault (allocation, an
  // injected failure) would poison the memo, and every future identical
  // request would be served the stale error after the fault clears.
  // Failures for deterministic reasons (unknown config) recompute
  // cheaply.  Both racing requests of a cold key computed bit-identical
  // responses (everything is deterministic), so the first insert wins,
  // counts the miss, and the loser counts a hit.
  bool miss = true;
  if (response.ok) {
    ResponseShard& shard = shard_for(key);
    BatchResponse entry = response;
    std::lock_guard lock(shard.mu);
    miss = shard.map.try_emplace(std::move(key), std::move(entry)).second;
  }
  count_lookup(!miss);
}

void BatchEngine::count_lookup(bool hit) {
  (hit ? response_hits_ : response_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  (hit ? metrics_.memo_hits : metrics_.memo_misses).inc();
}

void BatchEngine::evaluate_chunk(std::span<const BatchRequest> requests,
                                 std::span<Miss> chunk,
                                 const core::AutoPowerModel& model,
                                 std::span<BatchResponse> responses) {
  // Simulate every request of the chunk; a lookup or simulate failure
  // fails only its own request.
  std::vector<core::EvalContext> contexts;
  std::vector<BatchResponse*> pending;
  contexts.reserve(chunk.size());
  pending.reserve(chunk.size());
  for (const Miss& miss : chunk) {
    const BatchRequest& request = requests[miss.index];
    BatchResponse& resp = responses[miss.index];
    resp.index = miss.index;
    resp.config = request.config;
    resp.workload = request.workload;
    resp.mode = request.mode;
    try {
      AUTOPOWER_FAULT_POINT("serve.engine.handle");
      if (request.mode == PredictMode::kTrace) {
        fill_trace(resp, sim_, model);
        resp.ok = true;
      } else {
        contexts.push_back(simulate_context(request, sim_));
        pending.push_back(&resp);
      }
    } catch (const std::exception& e) {
      resp.error = e.what();
    }
  }

  // One batched predict over the simulated contexts, scattered back into
  // their slots.  No per-row predict failure exists, so a throw fails
  // every request of the batch with its message.
  if (!contexts.empty()) {
    try {
      const auto results = model.predict_batch(contexts);
      for (std::size_t k = 0; k < pending.size(); ++k) {
        fill_prediction(*pending[k], results[k]);
      }
      for (BatchResponse* resp : pending) resp->ok = true;
    } catch (const std::exception& e) {
      for (BatchResponse* resp : pending) resp->error = e.what();
    }
  }

  for (Miss& miss : chunk) {
    if (requests[miss.index].mode == PredictMode::kTrace) continue;
    memoise(std::move(miss.key), responses[miss.index]);
  }
}

std::vector<BatchResponse> BatchEngine::run(
    std::span<const BatchRequest> requests) {
  std::vector<BatchResponse> responses(requests.size());
  if (requests.empty()) return responses;

  metrics_.batch_size.observe(requests.size());
  metrics_.requests.add(requests.size());
  const Clock::time_point run_start = Clock::now();
  // Queue wait: how long a request sat in the batch before it was picked
  // up (all are "enqueued" at run start); latency: pickup to response.
  const auto observe = [&](Clock::time_point pickup, std::size_t n) {
    if (!util::MetricsRegistry::enabled()) return;
    const Clock::time_point done = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
      metrics_.queue_wait_ns.observe(ns_between(run_start, pickup));
      metrics_.request_latency_ns.observe(ns_between(pickup, done));
    }
  };

  // Pin the published snapshot ONCE: a swap_model() landing mid-run can
  // never tear this batch across two models.
  const std::shared_ptr<const core::AutoPowerModel> pinned = model();

  // Memo hits are answered here on the caller.  Every other request is a
  // miss, in input order, except an in-batch repeat of a missed key: it
  // waits for the first request of that key, its leader.
  std::vector<Miss> misses;
  std::vector<std::pair<std::size_t, std::size_t>> repeats;  // (i, leader)
  std::unordered_map<std::string, std::size_t> leaders;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].mode == PredictMode::kTrace) {
      misses.push_back({i, {}});
      continue;
    }
    const Clock::time_point pickup = Clock::now();
    std::string key = response_key(pinned->fingerprint(), requests[i]);
    if (!lookup(key, responses[i])) {
      const auto [it, first] = leaders.try_emplace(key, i);
      if (first) {
        misses.push_back({i, std::move(key)});
      } else {
        repeats.emplace_back(i, it->second);
      }
      continue;
    }
    responses[i].index = i;
    count_lookup(true);
    observe(pickup, 1);
  }

  // Chunk c covers misses [c * chunk, (c + 1) * chunk) and writes only
  // their response slots, so the output is in input order by
  // construction.  Every chunk reads the engine's one simulator, whose
  // structural cache dedupes cache/TLB/branch measurements (for simulate
  // AND simulate_trace) across threads.
  if (!misses.empty()) {
    const std::size_t workers =
        util::parallel_width(misses.size(), options_.threads);
    const std::size_t chunk = chunk_size(misses.size(), workers);
    const std::size_t n_chunks = (misses.size() + chunk - 1) / chunk;
    util::parallel_for(n_chunks, workers, [&](std::size_t c) {
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(begin + chunk, misses.size());
      const Clock::time_point pickup = Clock::now();
      evaluate_chunk(requests, std::span(misses).subspan(begin, end - begin),
                     *pinned, responses);
      observe(pickup, end - begin);
    });
  }

  // A repeat copies its leader's response.  It counts a hit when the
  // leader's response was memoised and a miss when it failed (failures
  // are never memoised), like a lookup after the leader would have.
  const Clock::time_point pickup = Clock::now();
  for (const auto& [i, leader] : repeats) {
    responses[i] = responses[leader];
    responses[i].index = i;
    count_lookup(responses[i].ok);
  }
  observe(pickup, repeats.size());
  finish_run(responses);
  return responses;
}

void BatchEngine::finish_run(std::span<const BatchResponse> responses) {
  if (!util::MetricsRegistry::enabled()) return;
  std::uint64_t failed = 0;
  for (const BatchResponse& r : responses) {
    if (!r.ok) ++failed;
  }
  if (failed > 0) metrics_.failed.add(failed);
  sim_.structural_cache()->export_metrics(util::MetricsRegistry::global());
}

}  // namespace autopower::serve
