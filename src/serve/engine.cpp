#include "serve/engine.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
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

}  // namespace

BatchEngine::BatchEngine(std::shared_ptr<const core::AutoPowerModel> model,
                         EngineOptions options)
    : model_(std::move(model)),
      options_(options),
      cache_(kCacheShards),
      response_shards_(kCacheShards),
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

EvalCache::Stats BatchEngine::response_stats() const noexcept {
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

BatchResponse BatchEngine::handle(const BatchRequest& request,
                                  std::size_t index,
                                  const core::AutoPowerModel& model) {
  // Outside compute()'s try block: an injected failure here exercises the
  // worker-loop error isolation, not the per-request error reporting.
  AUTOPOWER_FAULT_POINT("serve.engine.handle");
  if (!options_.memoize_responses || request.mode == PredictMode::kTrace) {
    BatchResponse resp = compute(request, model);
    resp.index = index;
    return resp;
  }

  const std::string key = response_key(model.fingerprint(), request);
  ResponseShard& shard =
      response_shards_[std::hash<std::string>{}(key) %
                       response_shards_.size()];
  {
    std::lock_guard lock(shard.mu);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      response_hits_.fetch_add(1, std::memory_order_relaxed);
      metrics_.memo_hits.inc();
      BatchResponse resp = *it->second;  // memoised with index == 0
      resp.index = index;
      return resp;
    }
  }

  // Compute outside the lock; on a racing miss the first insert wins and
  // both copies are bit-identical anyway (everything is deterministic).
  auto computed =
      std::make_shared<const BatchResponse>(compute(request, model));
  if (!computed->ok) {
    // Never memoise a failed response: compute() folds transient faults
    // (allocation / injected failures) into ok == false, and publishing
    // one would poison the memo — every future identical request would
    // be served the stale error even after the fault clears.  Failures
    // for deterministic reasons (unknown config) recompute cheaply.
    response_misses_.fetch_add(1, std::memory_order_relaxed);
    metrics_.memo_misses.inc();
    BatchResponse resp = *computed;
    resp.index = index;
    return resp;
  }
  BatchResponse resp;
  bool won_insert = false;
  {
    std::lock_guard lock(shard.mu);
    const auto [it, inserted] = shard.map.emplace(key, std::move(computed));
    won_insert = inserted;
    resp = *it->second;
  }
  // Only the winning insert is a miss; a lost race adopted the published
  // response and counts as a hit (see response_stats doc).
  if (won_insert) {
    response_misses_.fetch_add(1, std::memory_order_relaxed);
    metrics_.memo_misses.inc();
  } else {
    response_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics_.memo_hits.inc();
  }
  resp.index = index;
  return resp;
}

BatchResponse BatchEngine::compute(const BatchRequest& request,
                                   const core::AutoPowerModel& model) {
  BatchResponse resp;
  resp.config = request.config;
  resp.workload = request.workload;
  resp.mode = request.mode;
  try {
    if (request.mode == PredictMode::kTrace) {
      // Per-window contexts are trace-specific and not cached: a trace is
      // one large deterministic simulation, not a repeated lookup key.
      const auto& cfg = arch::boom_config(request.config);
      const auto& profile = workload::workload_by_name(request.workload);
      const auto program = workload::program_features(profile);
      const auto windows = sim_.simulate_trace(cfg, profile);
      std::vector<core::EvalContext> contexts(windows.size());
      for (std::size_t w = 0; w < windows.size(); ++w) {
        contexts[w].cfg = &cfg;
        contexts[w].workload = request.workload;
        contexts[w].program = program;
        contexts[w].events = windows[w];
      }
      resp.trace_mw = model.predict_trace(contexts);
      for (double mw : resp.trace_mw) resp.total_mw += mw;
      if (!resp.trace_mw.empty()) {
        resp.total_mw /= static_cast<double>(resp.trace_mw.size());
      }
    } else {
      const auto ctx = cache_.get_or_compute(model.fingerprint(),
                                             request.config,
                                             request.workload, sim_);
      if (request.mode == PredictMode::kPerComponent) {
        const auto result = model.predict(*ctx);
        resp.components.reserve(result.components.size());
        for (const auto& cp : result.components) {
          resp.components.push_back(
              {std::string(arch::component_name(cp.component)),
               cp.groups.clock, cp.groups.sram, cp.groups.logic(),
               cp.groups.total()});
        }
        resp.total_mw = result.total();
      } else {
        resp.total_mw = model.predict_total(*ctx);
      }
    }
    resp.ok = true;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }
  return resp;
}

std::vector<BatchResponse> BatchEngine::run(
    std::span<const BatchRequest> requests) {
  std::vector<BatchResponse> responses(requests.size());
  if (requests.empty()) return responses;

  metrics_.batch_size.observe(requests.size());
  metrics_.requests.add(requests.size());
  const auto run_start = std::chrono::steady_clock::now();

  // Pin the published snapshot ONCE: a swap_model() landing mid-run can
  // never tear this batch across two models.
  const std::shared_ptr<const core::AutoPowerModel> pinned = model();

  // One slot per worker; each pulls request indices off a shared atomic
  // counter and writes into disjoint response slots, so the output is in
  // input order by construction.  Every worker reads the engine's one
  // simulator, whose structural cache dedupes cache/TLB/branch
  // measurements (for simulate AND simulate_trace) across workers.
  const std::size_t workers =
      util::parallel_width(requests.size(), options_.threads);
  std::atomic<std::size_t> next{0};
  util::parallel_for(workers, workers, [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < requests.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      // Queue wait: how long this request sat in the batch before a
      // worker picked it up (requests are all "enqueued" at run start).
      if (util::MetricsRegistry::enabled()) {
        metrics_.queue_wait_ns.observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - run_start)
                .count()));
      }
      util::ScopedTimer timer(metrics_.request_latency_ns);
      // A request whose failure escapes handle() (it only catches inside
      // compute()) must fail alone, exactly like a bad request: its slot
      // gets an error response and the worker moves on to the next index
      // instead of taking the rest of the batch down with it.
      try {
        responses[i] = handle(requests[i], i, *pinned);
      } catch (const std::exception& e) {
        responses[i] = BatchResponse{};
        responses[i].index = i;
        responses[i].config = requests[i].config;
        responses[i].workload = requests[i].workload;
        responses[i].mode = requests[i].mode;
        responses[i].ok = false;
        responses[i].error = e.what();
      }
    }
  });
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
