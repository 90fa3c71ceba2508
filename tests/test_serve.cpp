// Tests for the batch serving subsystem (src/serve/): thread-pool
// lifecycle and graceful shutdown, the parallel_for fan-out contract
// (exactly-once, nesting, concurrent callers, failures), batch-engine
// determinism against the serial predict loop and its response memo's
// hit/miss accounting, the design-space sweep
// driver (grid parsing/expansion, ranking, thread-count invariance,
// shared structural memo), and the JSONL wire format.
//
// This suite is built as its own binary so tools/check.sh can run it
// under the ThreadSanitizer preset in isolation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/autopower.hpp"
#include "power/golden.hpp"
#include "serve/engine.hpp"
#include "serve/jsonl.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/structural_cache.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {
namespace {

// --- Shared trained model fixture -------------------------------------------

core::EvalContext make_context(const sim::PerfSimulator& sim,
                               const std::string& config,
                               const std::string& workload) {
  core::EvalContext ctx;
  ctx.cfg = &arch::boom_config(config);
  ctx.workload = workload;
  const auto& profile = workload::workload_by_name(workload);
  ctx.program = workload::program_features(profile);
  ctx.events = sim.simulate(*ctx.cfg, profile);
  return ctx;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::PerfSimulator sim;
    power::GoldenPowerModel golden;
    std::vector<core::EvalContext> train;
    for (const std::string config : {"C1", "C15"}) {
      for (const auto& w : workload::riscv_tests_workloads()) {
        train.push_back(make_context(sim, config, w.name));
      }
    }
    auto model = std::make_shared<core::AutoPowerModel>();
    model->train(train, golden);
    model_ = new std::shared_ptr<const core::AutoPowerModel>(std::move(model));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static std::shared_ptr<const core::AutoPowerModel> model() {
    return *model_;
  }

  static std::shared_ptr<const core::AutoPowerModel>* model_;
};

std::shared_ptr<const core::AutoPowerModel>* ServeTest::model_ = nullptr;

// --- ThreadPool and parallel_for (hosted in util/, exercised here
// alongside their main consumers) ---------------------------------------------

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> counter{0};
  util::ThreadPool pool(4);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.shutdown();  // drains, then joins
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingWork) {
  std::atomic<int> counter{0};
  util::ThreadPool pool(2);
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      counter.fetch_add(1);
    });
  }
  // Most tasks are still queued here; a graceful shutdown must run them
  // all before joining rather than dropping the queue.
  pool.shutdown();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  util::ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), util::Error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillWorkers) {
  std::atomic<int> counter{0};
  util::ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("request failed"); });
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentSubmittersLoseNoTasks) {
  // Concurrent parallel_for callers submit helpers from many threads at
  // once; the pool's multi-submitter contract (thread_pool.hpp) promises
  // no task is lost or duplicated under contention.
  std::atomic<int> counter{0};
  util::ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 250;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) t.join();
  pool.shutdown();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolTest, ConcurrentSubmittersRacingShutdownNeverLoseAccepted) {
  // Shutdown may begin while other threads are still submitting: every
  // submit must either be accepted (and then RUN, by the graceful-drain
  // guarantee) or throw — never silently dropped.
  std::atomic<int> ran{0};
  std::atomic<int> accepted{0};
  util::ThreadPool pool(2);
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        try {
          pool.submit([&ran] { ran.fetch_add(1); });
          accepted.fetch_add(1);
        } catch (const util::Error&) {
          return;  // shutdown won the race; later submits would throw too
        }
      }
    });
  }
  pool.shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(ran.load(), accepted.load());
}

/// Runs parallel_for(n, threads) and returns how often each index ran.
std::vector<int> index_hits(std::size_t n, std::size_t threads) {
  std::vector<std::atomic<int>> hits(n);
  util::parallel_for(n, threads, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 7u, 1000u}) {
    for (const std::size_t threads : {1u, 2u, 8u, 100000u}) {
      EXPECT_EQ(index_hits(n, threads), std::vector<int>(n, 1))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ParallelFor, WidthClampsToWorkAndHost) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(util::parallel_width(0, 8), 1u);
  EXPECT_EQ(util::parallel_width(5, 0), 1u);
  EXPECT_EQ(util::parallel_width(5, 1), 1u);
  EXPECT_EQ(util::parallel_width(1000, 100000), hw);
  EXPECT_EQ(util::parallel_width(2, 100000), std::min<std::size_t>(2, hw));
}

TEST(ParallelFor, InlineRunsInIndexOrderOnTheCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  util::parallel_for(5, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, NestedCallCompletes) {
  // Every outer index fans out again: with all helpers busy on the outer
  // loop, each inner call must still finish on its own caller.
  std::atomic<int> total{0};
  util::parallel_for(16, 8, [&total](std::size_t) {
    util::parallel_for(64, 8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16 * 64);
}

TEST(ParallelFor, ConcurrentCallersAllComplete) {
  std::vector<std::vector<int>> results(4);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < results.size(); ++t) {
    callers.emplace_back(
        [&results, t] { results[t] = index_hits(500 + t, 8); });
  }
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < results.size(); ++t) {
    EXPECT_EQ(results[t], std::vector<int>(500 + t, 1)) << "caller " << t;
  }
}

TEST(ParallelFor, ThrowRunsEveryOtherIndexThenRethrowsOriginalType) {
  struct Boom : std::runtime_error {
    Boom() : std::runtime_error("boom") {}
  };
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> hits(100);
    EXPECT_THROW(util::parallel_for(hits.size(), threads,
                                    [&hits](std::size_t i) {
                                      hits[i].fetch_add(1);
                                      if (i % 10 == 3) throw Boom();
                                    }),
                 Boom)
        << "threads=" << threads;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

// --- BatchEngine -------------------------------------------------------------

class EngineTest : public ServeTest {};

std::vector<BatchRequest> grid_requests(PredictMode mode) {
  std::vector<BatchRequest> requests;
  for (const auto& cfg : arch::boom_design_space()) {
    for (const std::string wl : {"dhrystone", "qsort", "towers", "spmv"}) {
      requests.push_back({cfg.name(), wl, mode});
    }
  }
  return requests;
}

/// The per-window contexts the engine predicts for a trace request.
std::vector<core::EvalContext> trace_contexts(const sim::PerfSimulator& sim,
                                              const std::string& config,
                                              const std::string& workload) {
  const auto& cfg = arch::boom_config(config);
  const auto& profile = workload::workload_by_name(workload);
  std::vector<core::EvalContext> windows;
  for (const auto& events : sim.simulate_trace(cfg, profile)) {
    windows.push_back({&cfg, workload, workload::program_features(profile),
                       events});
  }
  return windows;
}

TEST_F(EngineTest, ParallelRunMatchesSerialPredictLoopExactly) {
  // One mixed batch: every mode, the same key twice, one (config,
  // workload) under two modes, and an unknown config and an unknown
  // workload between valid requests.
  std::vector<BatchRequest> requests = grid_requests(PredictMode::kTotal);
  const std::vector<BatchRequest> mixed = {
      {"C8", "median", PredictMode::kPerComponent},
      {"C3", "qsort", PredictMode::kTrace},
      {"C99", "dhrystone", PredictMode::kTotal},
      {"C8", "median", PredictMode::kTotal},
      {"C8", "median", PredictMode::kPerComponent},
      {"C2", "no_such_workload", PredictMode::kPerComponent},
      {"C5", "towers", PredictMode::kPerComponent},
      {"C5", "towers", PredictMode::kPerComponent},
  };
  for (std::size_t k = 0; k < mixed.size(); ++k) {
    requests.insert(requests.begin() + static_cast<std::ptrdiff_t>(7 * k + 3),
                    mixed[k]);
  }
  const auto is_bad = [](const BatchRequest& r) {
    return r.config == "C99" || r.workload == "no_such_workload";
  };

  // The serial baseline: the plain per-context predict loop the engine
  // replaces.
  sim::PerfSimulator sim;
  std::vector<double> want_total(requests.size());
  std::vector<power::PowerResult> want_parts(requests.size());
  std::vector<std::vector<double>> want_trace(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const BatchRequest& r = requests[i];
    if (is_bad(r)) continue;
    switch (r.mode) {
      case PredictMode::kTotal:
        want_total[i] =
            model()->predict_total(make_context(sim, r.config, r.workload));
        break;
      case PredictMode::kPerComponent:
        want_parts[i] =
            model()->predict(make_context(sim, r.config, r.workload));
        break;
      case PredictMode::kTrace:
        want_trace[i] = model()->predict_trace(
            trace_contexts(sim, r.config, r.workload));
        break;
    }
  }

  for (const std::size_t threads : {1u, 3u, 8u}) {
    BatchEngine engine(model(), {.threads = threads});
    // The second run answers the memoised requests from the memo.
    for (int pass = 0; pass < 2; ++pass) {
      const auto responses = engine.run(requests);
      ASSERT_EQ(responses.size(), requests.size());
      for (std::size_t i = 0; i < responses.size(); ++i) {
        const BatchRequest& r = requests[i];
        const BatchResponse& got = responses[i];
        SCOPED_TRACE("threads=" + std::to_string(threads) + " pass=" +
                     std::to_string(pass) + " request " + std::to_string(i));
        EXPECT_EQ(got.index, i);
        EXPECT_EQ(got.config, r.config);
        EXPECT_EQ(got.workload, r.workload);
        EXPECT_EQ(got.mode, r.mode);
        // Failures sit at exactly the bad indices.
        ASSERT_EQ(got.ok, !is_bad(r)) << got.error;
        if (!got.ok) {
          EXPECT_FALSE(got.error.empty());
          continue;
        }
        // Bit-identical, not approximately equal.
        switch (r.mode) {
          case PredictMode::kTotal:
            EXPECT_EQ(got.total_mw, want_total[i]);
            break;
          case PredictMode::kPerComponent: {
            const auto& want = want_parts[i];
            EXPECT_EQ(got.total_mw, want.total());
            ASSERT_EQ(got.components.size(), want.components.size());
            for (std::size_t c = 0; c < want.components.size(); ++c) {
              const auto& groups = want.components[c].groups;
              EXPECT_EQ(got.components[c].component,
                        arch::component_name(want.components[c].component));
              EXPECT_EQ(got.components[c].clock_mw, groups.clock);
              EXPECT_EQ(got.components[c].sram_mw, groups.sram);
              EXPECT_EQ(got.components[c].logic_mw, groups.logic());
              EXPECT_EQ(got.components[c].total_mw, groups.total());
            }
            break;
          }
          case PredictMode::kTrace:
            EXPECT_EQ(got.trace_mw, want_trace[i]);
            break;
        }
      }
    }
  }
}

TEST_F(EngineTest, ThreadCountDoesNotChangeResults) {
  const auto requests = grid_requests(PredictMode::kTotal);
  BatchEngine serial_engine(model(), {.threads = 1});
  BatchEngine parallel_engine(model(), {.threads = 8});
  const auto a = serial_engine.run(requests);
  const auto b = parallel_engine.run(requests);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].total_mw, b[i].total_mw);
  }
}

TEST_F(EngineTest, ConcurrentRunCallsStayBitIdentical) {
  // The multi-caller contract (engine.hpp): run() from several threads
  // at once — sharing the response memo and the structural cache — must
  // return exactly what a lone serial engine returns for each call.
  // This is the daemon's world: many submitters, one engine.
  const auto requests = grid_requests(PredictMode::kTotal);
  BatchEngine reference(model(), {.threads = 1});
  const auto expected = reference.run(requests);

  BatchEngine shared(model(), {.threads = 4});
  constexpr int kCallers = 6;
  std::vector<std::vector<BatchResponse>> got(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    // Distinct per-caller orders so concurrent calls interleave cache
    // fills instead of marching in lockstep.
    callers.emplace_back([&, c] {
      auto reqs = requests;
      std::rotate(reqs.begin(), reqs.begin() + (c * 7) % reqs.size(),
                  reqs.end());
      got[c] = shared.run(reqs);
    });
  }
  for (auto& t : callers) t.join();

  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), expected.size()) << "caller " << c;
    const std::size_t shift = (c * 7) % requests.size();
    for (std::size_t i = 0; i < got[c].size(); ++i) {
      const auto& want = expected[(i + shift) % expected.size()];
      ASSERT_TRUE(got[c][i].ok) << got[c][i].error;
      EXPECT_EQ(got[c][i].config, want.config);
      EXPECT_EQ(got[c][i].total_mw, want.total_mw)
          << "caller " << c << " request " << i;
    }
  }
}

TEST_F(EngineTest, PerComponentAndTraceModes) {
  // Trace mode on a riscv-tests workload: same code path as the GEMM/SPMM
  // kernels at a fraction of the window count (keeps the tsan run fast).
  std::vector<BatchRequest> requests = {
      {"C8", "median", PredictMode::kPerComponent},
      {"C3", "qsort", PredictMode::kTrace},
  };
  BatchEngine engine(model(), {.threads = 2});
  const auto responses = engine.run(requests);
  ASSERT_EQ(responses.size(), 2u);

  ASSERT_TRUE(responses[0].ok) << responses[0].error;
  ASSERT_EQ(responses[0].components.size(), arch::kNumComponents);
  sim::PerfSimulator sim;
  const auto direct = model()->predict(make_context(sim, "C8", "median"));
  EXPECT_EQ(responses[0].total_mw, direct.total());
  EXPECT_EQ(responses[0].components[0].clock_mw,
            direct.components[0].groups.clock);

  ASSERT_TRUE(responses[1].ok) << responses[1].error;
  EXPECT_GT(responses[1].trace_mw.size(), 100u);
  for (const double mw : responses[1].trace_mw) EXPECT_GT(mw, 0.0);
}

TEST_F(EngineTest, BadRequestFailsAloneNotTheBatch) {
  std::vector<BatchRequest> requests = {
      {"C1", "dhrystone", PredictMode::kTotal},
      {"C99", "dhrystone", PredictMode::kTotal},
      {"C2", "no_such_workload", PredictMode::kTotal},
      {"C2", "vvadd", PredictMode::kTotal},
  };
  BatchEngine engine(model(), {.threads = 4});
  const auto responses = engine.run(requests);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_NE(responses[1].error.find("C99"), std::string::npos);
  EXPECT_FALSE(responses[2].ok);
  EXPECT_TRUE(responses[3].ok);
}

TEST_F(EngineTest, FaultedDrainKeepsSiblingResultsBitIdentical) {
#if !defined(AUTOPOWER_FAULT_INJECTION)
  GTEST_SKIP() << "fault points are compiled out";
#endif
  // A request lost to an exception mid-drain must not hang run() (the
  // old in-task latch would strand forever), must fail alone, and must
  // leave every sibling response bit-identical to a fault-free run.
  const std::vector<BatchRequest> requests = {
      {"C1", "dhrystone", PredictMode::kTotal},
      {"C3", "qsort", PredictMode::kTotal},
      {"C5", "median", PredictMode::kPerComponent},
      {"C7", "towers", PredictMode::kTotal},
      {"C9", "rsort", PredictMode::kTotal},
      {"C11", "vvadd", PredictMode::kTotal},
  };
  BatchEngine clean_engine(model(), {.threads = 3});
  const auto expected = clean_engine.run(requests);

  BatchEngine engine(model(), {.threads = 3});
  std::vector<BatchResponse> faulted;
  {
    util::fault::ScopedFault armed("serve.engine.handle",
                                   util::fault::Trigger::countdown(1));
    faulted = engine.run(requests);  // must return, not hang
  }
  ASSERT_EQ(faulted.size(), requests.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    EXPECT_EQ(faulted[i].index, i);
    if (!faulted[i].ok) {
      ++failed;
      EXPECT_NE(faulted[i].error.find("injected fault"), std::string::npos)
          << faulted[i].error;
      continue;
    }
    ASSERT_TRUE(expected[i].ok);
    EXPECT_EQ(faulted[i].total_mw, expected[i].total_mw);
    ASSERT_EQ(faulted[i].components.size(), expected[i].components.size());
    for (std::size_t j = 0; j < faulted[i].components.size(); ++j) {
      EXPECT_EQ(faulted[i].components[j].total_mw,
                expected[i].components[j].total_mw);
    }
  }
  EXPECT_EQ(failed, 1u);

  // Disarmed, the same engine completes the whole batch, bit-identical.
  const auto recovered = engine.run(requests);
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    ASSERT_TRUE(recovered[i].ok) << recovered[i].error;
    EXPECT_EQ(recovered[i].total_mw, expected[i].total_mw);
  }
}

TEST_F(EngineTest, CachesDeduplicateRepeatedRequests) {
  std::vector<BatchRequest> requests;
  for (int i = 0; i < 40; ++i) {
    requests.push_back({"C6", "rsort", PredictMode::kTotal});
  }
  BatchEngine engine(model(), {.threads = 4});
  const auto responses = engine.run(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok);
    EXPECT_EQ(responses[i].index, i);
    EXPECT_EQ(responses[i].total_mw, responses[0].total_mw);
  }
  // Response memo: one entry was created, so exactly one miss — racing
  // duplicate computations lose the insert and count as hits.
  const auto rs = engine.response_stats();
  EXPECT_EQ(rs.misses, 1u);
  EXPECT_EQ(rs.hits, 39u);
}

TEST_F(EngineTest, InBatchRepeatsOfAColdKeyComputeOnce) {
  // A repeat of a missed key copies its leader's response instead of
  // simulating and predicting again, so N identical cold requests make
  // the structural-memo lookups of one request.
  const BatchRequest request{"C4", "towers", PredictMode::kPerComponent};
  BatchEngine one(model(), {.threads = 4});
  const auto single = one.run(std::vector<BatchRequest>{request});
  ASSERT_TRUE(single[0].ok) << single[0].error;
  const auto one_stats = one.cache().stats();

  BatchEngine many(model(), {.threads = 4});
  const auto responses = many.run(std::vector<BatchRequest>(16, request));
  const auto many_stats = many.cache().stats();
  EXPECT_EQ(many_stats.hits + many_stats.misses,
            one_stats.hits + one_stats.misses);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_EQ(responses[i].index, i);
    EXPECT_EQ(responses[i].total_mw, single[0].total_mw);
    ASSERT_EQ(responses[i].components.size(), single[0].components.size());
    for (std::size_t j = 0; j < single[0].components.size(); ++j) {
      EXPECT_EQ(responses[i].components[j].total_mw,
                single[0].components[j].total_mw);
    }
  }
  // The leader's memoised response makes every repeat a hit.
  EXPECT_EQ(many.response_stats().misses, 1u);
  EXPECT_EQ(many.response_stats().hits, 15u);

  // A failed leader is never memoised, so each repeat counts a miss:
  // misses == memoised + failed requests, hits + misses == lookups.
  const auto failed =
      many.run(std::vector<BatchRequest>(3, {"C99", "towers"}));
  for (std::size_t i = 0; i < failed.size(); ++i) {
    EXPECT_FALSE(failed[i].ok);
    EXPECT_EQ(failed[i].index, i);
    EXPECT_EQ(failed[i].error, failed[0].error);
  }
  EXPECT_EQ(many.response_stats().misses, 1u + 3u);
  EXPECT_EQ(many.response_stats().hits, 15u);
}

TEST_F(EngineTest, RunPopulatesGlobalMetrics) {
  // The engine records into the process-wide registry; other tests (and
  // the fixture) record too, so assert on deltas, not absolute values.
  auto& registry = util::MetricsRegistry::global();
  const auto requests_before = registry.counter("serve.batch.requests").value();
  const auto latency_before =
      registry.histogram("serve.batch.request_latency_ns").count();
  const auto memo_hits_before =
      registry.counter("serve.batch.response_memo.hits").value();
  const auto memo_misses_before =
      registry.counter("serve.batch.response_memo.misses").value();

  std::vector<BatchRequest> requests(
      12, BatchRequest{"C5", "median", PredictMode::kTotal});
  BatchEngine engine(model(), {.threads = 3});
  const auto responses = engine.run(requests);
  for (const auto& r : responses) ASSERT_TRUE(r.ok);

  EXPECT_EQ(registry.counter("serve.batch.requests").value(),
            requests_before + 12u);
  EXPECT_EQ(registry.histogram("serve.batch.request_latency_ns").count(),
            latency_before + 12u);
  // Registry memo counters mirror the engine's own stats exactly.
  const auto rs = engine.response_stats();
  EXPECT_EQ(registry.counter("serve.batch.response_memo.hits").value(),
            memo_hits_before + rs.hits);
  EXPECT_EQ(registry.counter("serve.batch.response_memo.misses").value(),
            memo_misses_before + rs.misses);
  EXPECT_EQ(rs.hits + rs.misses, 12u);
}

TEST_F(EngineTest, EmptyBatchAndNullModel) {
  BatchEngine engine(model(), {.threads = 2});
  EXPECT_TRUE(engine.run({}).empty());
  EXPECT_THROW(BatchEngine(nullptr, {}), util::Error);
}

/// A deliberately different model (tiny GBT ensembles, narrow training
/// set) whose predictions diverge from ServeTest::model() everywhere.
std::shared_ptr<const core::AutoPowerModel> variant_model() {
  sim::PerfSimulator sim;
  power::GoldenPowerModel golden;
  std::vector<core::EvalContext> train;
  for (const std::string config : {"C1", "C15"}) {
    for (const char* w : {"dhrystone", "qsort"}) {
      train.push_back(make_context(sim, config, w));
    }
  }
  core::AutoPowerOptions options;
  options.clock.gbt.num_rounds = 3;
  options.clock.gbt.tree.max_depth = 2;
  options.sram.gbt.num_rounds = 3;
  options.sram.gbt.tree.max_depth = 2;
  options.logic.gbt.num_rounds = 3;
  options.logic.gbt.tree.max_depth = 2;
  auto variant = std::make_shared<core::AutoPowerModel>(options);
  variant->train(train, golden, 1);
  return variant;
}

TEST_F(EngineTest, HotSwapNeverServesStaleMemoEntries) {
  // THE stale-model regression: every response-memo key carries the
  // model's archive fingerprint, so after
  // swap_model() a repeated request must be recomputed under the new
  // snapshot — under fingerprint-less keys this test fails by serving
  // the OLD model's memoized responses bit-for-bit.
  const auto other = variant_model();
  ASSERT_NE(other->fingerprint(), model()->fingerprint());

  std::vector<BatchRequest> requests = {
      {"C3", "dhrystone", PredictMode::kTotal},
      {"C8", "qsort", PredictMode::kTotal},
      {"C8", "median", PredictMode::kPerComponent},
  };
  BatchEngine original(model(), {.threads = 2});
  BatchEngine fresh_other(other, {.threads = 2});
  const auto before = original.run(requests);   // warms the memo
  const auto want_other = fresh_other.run(requests);

  BatchEngine swapped(model(), {.threads = 2});
  EXPECT_EQ(swapped.model_fingerprint(), model()->fingerprint());
  const auto warm = swapped.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(warm[i].ok) << warm[i].error;
    EXPECT_EQ(warm[i].total_mw, before[i].total_mw);
  }

  swapped.swap_model(other);
  EXPECT_EQ(swapped.model(), other);
  EXPECT_EQ(swapped.model_fingerprint(), other->fingerprint());
  const auto after = swapped.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(after[i].ok) << after[i].error;
    EXPECT_EQ(after[i].total_mw, want_other[i].total_mw) << "request " << i;
    EXPECT_NE(after[i].total_mw, before[i].total_mw) << "request " << i;
  }

  // Swapping BACK re-hits the original model's still-keyed entries: the
  // old memo was never invalidated, merely de-routed — so A→B→A serves
  // A's answers again without recomputation.
  const auto hits_before = swapped.response_stats().hits;
  swapped.swap_model(model());
  const auto back = swapped.run(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(back[i].total_mw, before[i].total_mw);
  }
  EXPECT_EQ(swapped.response_stats().hits, hits_before + requests.size());
}

TEST_F(EngineTest, TraceModeSharesStructuralCacheAcrossWorkers) {
  // C11 and C12 share every structural parameter (branch count, issue
  // width, cache ways, TLB entries, fetch bytes) and differ only in window
  // parameters, so the second config's trace can only avoid re-running the
  // structural simulations through the engine's shared StructuralSimCache.
  std::vector<BatchRequest> requests;
  for (const char* w : {"median", "qsort", "towers", "vvadd"}) {
    requests.push_back({"C11", w, PredictMode::kTrace});
    requests.push_back({"C12", w, PredictMode::kTrace});
  }
  BatchEngine parallel_engine(model(), {.threads = 8});
  const auto parallel = parallel_engine.run(requests);
  EXPECT_GT(parallel_engine.cache().stats().hits, 0u);

  BatchEngine serial_engine(model(), {.threads = 1});
  const auto serial = serial_engine.run(requests);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    ASSERT_EQ(parallel[i].trace_mw.size(), serial[i].trace_mw.size());
    for (std::size_t t = 0; t < parallel[i].trace_mw.size(); ++t) {
      EXPECT_EQ(parallel[i].trace_mw[t], serial[i].trace_mw[t]);
    }
  }
}

// --- Design-space sweep ------------------------------------------------------

TEST(SweepGridTest, ParseGridReadsAxesInOrder) {
  const auto axes = parse_grid("RobEntry=64,96,128;FetchWidth=4,8");
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].param, arch::HwParam::kRobEntry);
  EXPECT_EQ(axes[0].values, (std::vector<int>{64, 96, 128}));
  EXPECT_EQ(axes[1].param, arch::HwParam::kFetchWidth);
  EXPECT_EQ(axes[1].values, (std::vector<int>{4, 8}));
}

TEST(SweepGridTest, ParseGridRejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_grid(""), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry"), util::Error);          // no '='
  EXPECT_THROW((void)parse_grid("NoSuchParam=1"), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry=64;RobEntry=96"),
               util::Error);                                        // duplicate
  EXPECT_THROW((void)parse_grid("RobEntry="), util::Error);         // no values
  EXPECT_THROW((void)parse_grid("RobEntry=64,-2"), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry=sixty"), util::Error);
  EXPECT_THROW((void)parse_grid("RobEntry=0"), util::Error);        // < 1
}

TEST(SweepGridTest, ExpandGridEnumeratesCartesianProduct) {
  const auto& base = arch::boom_config("C8");
  const auto axes = parse_grid("RobEntry=64,96;MshrEntry=2,4,8");
  const auto configs = expand_grid(base, axes);
  ASSERT_EQ(configs.size(), 6u);
  // First axis slowest, so the first three share RobEntry=64.
  EXPECT_EQ(configs[0].name(), base.name() + "+RobEntry=64+MshrEntry=2");
  EXPECT_EQ(configs[1].value(arch::HwParam::kMshrEntry), 4);
  EXPECT_EQ(configs[3].value(arch::HwParam::kRobEntry), 96);
  for (const auto& cfg : configs) {
    // Off-axis parameters are inherited from the base untouched.
    EXPECT_EQ(cfg.value(arch::HwParam::kFetchWidth),
              base.value(arch::HwParam::kFetchWidth));
    EXPECT_EQ(cfg.value(arch::HwParam::kCacheWay),
              base.value(arch::HwParam::kCacheWay));
  }
  // No axes: the grid is just the base configuration.
  EXPECT_EQ(expand_grid(base, {}).size(), 1u);
}

class SweepTest : public ServeTest {};

TEST_F(SweepTest, RanksRowsByMetricAndAggregatesCells) {
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid("RobEntry=64,96,128");
  spec.workloads = {"dhrystone", "qsort"};
  const auto report = run_sweep(*model(), spec);
  ASSERT_EQ(report.rows.size(), 3u);
  EXPECT_EQ(report.configs, 3u);
  EXPECT_EQ(report.evaluations, 6u);
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const auto& row = report.rows[i];
    EXPECT_EQ(row.rank, i + 1);
    ASSERT_EQ(row.cells.size(), 2u);
    for (const auto& cell : row.cells) {
      ASSERT_TRUE(cell.ok) << cell.error;
      EXPECT_GT(cell.total_mw, 0.0);
      EXPECT_GT(cell.ipc, 0.0);
    }
    EXPECT_EQ(row.mean_total_mw,
              (row.cells[0].total_mw + row.cells[1].total_mw) / 2.0);
    if (i > 0) {
      EXPECT_GE(report.rows[i - 1].ipc_per_watt, row.ipc_per_watt);
    }
  }
  // The sweep reuses every structural measurement after the first config.
  EXPECT_EQ(report.structural.misses, 10u);  // 2 workloads x 5 sub-sims
  EXPECT_EQ(report.structural.hits, 20u);
}

TEST_F(SweepTest, ThreadCountDoesNotChangeReport) {
  SweepSpec spec;
  spec.base = "C4";
  spec.axes = parse_grid("RobEntry=64,96;FetchBufferEntry=16,32;"
                         "LdqStqEntry=16,24");
  spec.workloads = {"dhrystone", "towers"};

  spec.threads = 1;
  const auto serial = run_sweep(*model(), spec);
  spec.threads = 8;
  const auto parallel = run_sweep(*model(), spec);

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(serial.rows[i].config, parallel.rows[i].config);
    EXPECT_EQ(serial.rows[i].mean_total_mw, parallel.rows[i].mean_total_mw);
    EXPECT_EQ(serial.rows[i].ipc_per_watt, parallel.rows[i].ipc_per_watt);
  }
  // The serialised reports are byte-identical.
  std::ostringstream a, b;
  write_sweep_report(a, serial);
  write_sweep_report(b, parallel);
  EXPECT_EQ(a.str(), b.str());
}

TEST_F(SweepTest, BadGridPointFailsAloneAndRanksLast) {
  SweepSpec spec;
  spec.base = "C8";
  // ICacheFetchBytes=3 breaks the power-of-two cache-set constraint for
  // that one configuration; the other grid points must be unaffected.
  spec.axes = parse_grid("ICacheFetchBytes=2,3,4");
  spec.workloads = {"dhrystone"};
  const auto report = run_sweep(*model(), spec);
  ASSERT_EQ(report.rows.size(), 3u);
  std::size_t failed = 0;
  for (const auto& row : report.rows) {
    for (const auto& cell : row.cells) {
      if (!cell.ok) {
        ++failed;
        EXPECT_FALSE(cell.error.empty());
      }
    }
  }
  EXPECT_EQ(failed, 1u);
  // The all-failed row carries no score and sorts last.
  const auto& last = report.rows.back();
  EXPECT_FALSE(last.cells[0].ok);
  EXPECT_EQ(last.config.value(arch::HwParam::kICacheFetchBytes), 3);

  // The metric and top knobs survive the round trip through strings.
  EXPECT_EQ(sweep_metric_from_string("power"), SweepMetric::kPower);
  EXPECT_THROW((void)sweep_metric_from_string("bogus"), util::Error);
  spec.top = 1;
  spec.metric = SweepMetric::kPower;
  EXPECT_EQ(run_sweep(*model(), spec).rows.size(), 1u);
}

TEST_F(SweepTest, ConcurrentSweepsShareOneStructuralCache) {
  // Two sweeps over overlapping grids run concurrently against ONE shared
  // structural cache — the arrangement tools/check.sh exercises under
  // ThreadSanitizer.  Each sweep itself is multi-threaded, so cache fills
  // race with lookups both within and across the sweeps.
  auto shared = std::make_shared<util::StructuralSimCache>();
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid("RobEntry=64,96,128;MshrEntry=2,4");
  spec.workloads = {"dhrystone", "qsort"};
  spec.threads = 4;

  SweepReport first, second;
  std::thread a([&] { first = run_sweep(*model(), spec, shared); });
  std::thread b([&] { second = run_sweep(*model(), spec, shared); });
  a.join();
  b.join();

  std::ostringstream sa, sb;
  write_sweep_report(sa, first);
  write_sweep_report(sb, second);
  EXPECT_EQ(sa.str(), sb.str());
  // Every simulate() makes exactly 5 structural lookups (one per sub-sim),
  // and the grid varies only non-structural parameters, so the 2 sweeps
  // x 12 evaluations make 120 lookups over 10 distinct keys.  Only the
  // winning insert per key counts as a miss — racing first-fills lose the
  // insert and count as hits — so the stats are exact: misses == entries.
  const auto stats = shared->stats();
  EXPECT_EQ(stats.hits + stats.misses, 120u);
  EXPECT_EQ(stats.misses, 10u);
  EXPECT_EQ(stats.hits, 110u);
  EXPECT_EQ(shared->size(), 10u);
}

TEST_F(SweepTest, SweepPopulatesGlobalMetrics) {
  auto& registry = util::MetricsRegistry::global();
  const auto cells_before = registry.counter("serve.sweep.cells").value();
  const auto latency_before =
      registry.histogram("serve.sweep.cell_latency_ns").count();

  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid("RobEntry=64,96");
  spec.workloads = {"dhrystone", "qsort"};
  spec.threads = 2;
  const auto report = run_sweep(*model(), spec);

  EXPECT_EQ(report.evaluations, 4u);
  EXPECT_EQ(registry.counter("serve.sweep.cells").value(), cells_before + 4u);
  EXPECT_EQ(registry.histogram("serve.sweep.cell_latency_ns").count(),
            latency_before + 4u);
  EXPECT_GT(registry.gauge("serve.sweep.cells_per_sec").value(), 0.0);
}

// Checks every cell of `rows` (grid-indexed into `configs`) against a
// fresh per-cell simulate + predict: ok cells bit-equal in power and
// IPC, failed cells carrying their simulate throw's text.  Returns the
// number of failed cells.
std::size_t expect_cells_match_per_cell_oracle(
    const core::AutoPowerModel& model,
    const std::vector<arch::HardwareConfig>& configs,
    const std::vector<std::string>& workloads,
    const std::vector<SweepRow>& rows) {
  const sim::PerfSimulator fresh;
  std::size_t failed = 0;
  for (const SweepRow& row : rows) {
    const arch::HardwareConfig& cfg = configs.at(row.index);
    EXPECT_EQ(row.config, cfg);
    EXPECT_EQ(row.cells.size(), workloads.size());
    for (std::size_t j = 0; j < row.cells.size(); ++j) {
      const SweepCell& cell = row.cells[j];
      const auto& profile = workload::workload_by_name(workloads[j]);
      EXPECT_EQ(cell.workload, profile.name);
      core::EvalContext ctx;
      ctx.cfg = &cfg;
      ctx.workload = profile.name;
      ctx.program = workload::program_features(profile);
      try {
        ctx.events = fresh.simulate(cfg, profile);
      } catch (const std::exception& e) {
        ++failed;
        EXPECT_FALSE(cell.ok) << cfg.name() << " / " << profile.name;
        EXPECT_EQ(cell.error, e.what());
        continue;
      }
      EXPECT_TRUE(cell.ok) << cfg.name() << " / " << profile.name << ": "
                           << cell.error;
      EXPECT_EQ(cell.total_mw, model.predict(ctx).total())
          << cfg.name() << " / " << profile.name;
      EXPECT_EQ(cell.ipc, ctx.events.rate(arch::EventKind::kInstructions))
          << cfg.name() << " / " << profile.name;
    }
  }
  return failed;
}

TEST_F(SweepTest, ChunkBatchedCellsMatchPerCellEvaluation) {
  // Sweeps simulate a chunk, then predict all of its cells in one
  // batch.  Batching must change no cell: with the last axis fastest,
  // each ICacheFetchBytes=3 config (whose simulate throws) sits between
  // two good configs of the same chunk, so a failure that leaked into
  // its batch neighbours would show up here.
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid(
      "RobEntry=64,96,128,160,192,224,256,288;ICacheFetchBytes=2,3,4");
  spec.workloads = {"dhrystone", "qsort"};
  const auto configs = expand_grid(arch::boom_config(spec.base), spec.axes);

  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    spec.threads = threads;
    const SweepReport report = run_sweep(*model(), spec);
    ASSERT_EQ(report.rows.size(), configs.size());
    // Every ICacheFetchBytes=3 config fails on every workload.
    EXPECT_EQ(expect_cells_match_per_cell_oracle(*model(), configs,
                                                 spec.workloads, report.rows),
              8u * spec.workloads.size());

    // evaluate_configs rows serialise byte-equal to the run_sweep rows.
    const auto rows =
        evaluate_configs(*model(), configs, spec.workloads, threads);
    ASSERT_EQ(rows.size(), configs.size());
    for (const SweepRow& swept : report.rows) {
      std::string want, got;
      append_row_json(want, swept);
      append_row_json(got, rows[swept.index]);
      EXPECT_EQ(got, want);
    }
  }
}

TEST_F(SweepTest, ChunksLargerThanOnePredictBatchMatchPerCellEvaluation) {
  // One worker over 1040 configs runs 130-config chunks: 390 cells, so
  // each chunk's predict splits into a full 256-context batch and a
  // partial one.  Cells on both sides of the split match the oracle.
  std::string grid = "RobEntry=";
  for (int v = 64; v < 64 + 52; ++v) {
    grid.append(v > 64 ? "," : "").append(std::to_string(v));
  }
  grid += ";LdqStqEntry=";
  for (int v = 8; v < 8 + 20; ++v) {
    grid.append(v > 8 ? "," : "").append(std::to_string(v));
  }
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid(grid);
  spec.workloads = {"dhrystone", "qsort", "towers"};
  spec.threads = 1;
  const auto configs = expand_grid(arch::boom_config(spec.base), spec.axes);
  ASSERT_EQ(configs.size(), 1040u);
  const SweepReport report = run_sweep(*model(), spec);
  ASSERT_EQ(report.rows.size(), configs.size());
  EXPECT_EQ(expect_cells_match_per_cell_oracle(*model(), configs,
                                               spec.workloads, report.rows),
            0u);
}

TEST_F(SweepTest, WorkloadRotationKeepsResultsScheduleFree) {
  // Chunk c of a T-worker call starts each row at workload
  // (c % T) * W / T, so concurrent chunks warm disjoint structural keys
  // first.  The rotation must not reach any result: run_sweep reports and
  // evaluate_configs rows are identical at every thread count, including
  // fewer workloads than workers and workload counts the worker count
  // does not divide.  One worker starts every chunk at workload 0, so its
  // structural memo traffic is that of the plain in-order walk, pinned
  // here by its exact hit and miss counts.  The grid varies structural
  // keys and holds configs whose simulate throws (ICacheFetchBytes=3).
  const std::vector<std::vector<std::string>> workload_sets = {
      {"qsort"},
      {"dhrystone", "qsort", "towers"},
      {"dhrystone", "median", "multiply", "qsort", "rsort", "towers", "spmv",
       "vvadd"}};
  // {sweep hits, sweep misses, evaluate_configs hits, misses} at one
  // thread, per workload set.
  const std::size_t serial_stats[][4] = {
      {109, 11, 109, 11}, {327, 33, 327, 33}, {872, 88, 872, 88}};
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid(
      "RobEntry=64,96,128;CacheWay=2,4;ICacheFetchBytes=2,3,4;TlbEntry=8,16");
  const auto configs = expand_grid(arch::boom_config(spec.base), spec.axes);
  for (std::size_t set = 0; set < workload_sets.size(); ++set) {
    spec.workloads = workload_sets[set];
    std::string serial_report;
    std::vector<std::string> serial_rows(configs.size());
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(std::to_string(spec.workloads.size()) +
                   " workloads, threads=" + std::to_string(threads));
      spec.threads = threads;
      const SweepReport report = run_sweep(*model(), spec);
      std::ostringstream bytes;
      write_sweep_report(bytes, report);
      const auto shared = std::make_shared<util::StructuralSimCache>();
      const auto rows =
          evaluate_configs(*model(), configs, spec.workloads, threads, shared);
      ASSERT_EQ(rows.size(), configs.size());
      if (threads == 1) {
        serial_report = bytes.str();
        for (const SweepRow& row : report.rows) {
          append_row_json(serial_rows[row.index], row);
        }
        const auto stats = shared->stats();
        EXPECT_EQ(report.structural.hits, serial_stats[set][0]);
        EXPECT_EQ(report.structural.misses, serial_stats[set][1]);
        EXPECT_EQ(stats.hits, serial_stats[set][2]);
        EXPECT_EQ(stats.misses, serial_stats[set][3]);
      }
      EXPECT_EQ(bytes.str(), serial_report);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        std::string got;
        append_row_json(got, rows[i]);
        EXPECT_EQ(got, serial_rows[i]) << "config " << i;
      }
    }
  }
}

TEST_F(SweepTest, FailedChunkStopsTheRestOfTheGrid) {
#if !defined(AUTOPOWER_FAULT_INJECTION)
  GTEST_SKIP() << "fault points are compiled out";
#endif
  // parallel_for runs every other index after one throws.  A sweep whose
  // checkpoint write failed must still not evaluate the rest of its grid
  // before reporting the error: chunks that start after the failure
  // return at once.  countdown(2) passes the header flush and fails the
  // first row flush (after 64 rows), inside the first chunk to finish.
  std::string grid = "RobEntry=";
  for (int v = 64; v < 64 + 100; ++v) {
    grid.append(v > 64 ? "," : "").append(std::to_string(v));
  }
  grid += ";LdqStqEntry=";
  for (int v = 8; v < 8 + 20; ++v) {
    grid.append(v > 8 ? "," : "").append(std::to_string(v));
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("autopower_failfast_" + std::to_string(::getpid()) + ".ckpt");
  SweepSpec spec;
  spec.base = "C8";
  spec.axes = parse_grid(grid);
  spec.workloads = {"dhrystone"};
  spec.threads = 2;
  spec.checkpoint = path.string();

  auto& cells = util::MetricsRegistry::global().counter("serve.sweep.cells");
  const auto before = cells.value();
  {
    util::fault::ScopedFault armed("serve.checkpoint.write",
                                   util::fault::Trigger::countdown(2));
    EXPECT_THROW((void)run_sweep(*model(), spec), util::Error);
  }
  std::filesystem::remove(path);
  // 2000 configs over 2 workers run as 16 chunks of 125; at most a few
  // chunks per worker start before the failed one is seen.
  EXPECT_LE(cells.value() - before, 2u * 3u * 125u);
}

// --- JSONL -------------------------------------------------------------------

TEST(JsonlTest, ParsesRequestsWithAndWithoutMode) {
  const auto a = request_from_jsonl(
      R"({"config": "C3", "workload": "dhrystone"})");
  EXPECT_EQ(a.config, "C3");
  EXPECT_EQ(a.workload, "dhrystone");
  EXPECT_EQ(a.mode, PredictMode::kTotal);

  const auto b = request_from_jsonl(
      R"({"mode": "per_component", "workload": "gemm", "config": "C8"})");
  EXPECT_EQ(b.mode, PredictMode::kPerComponent);

  const auto c =
      request_from_jsonl(R"({"config":"C1","workload":"spmv","mode":"trace"})");
  EXPECT_EQ(c.mode, PredictMode::kTrace);
}

TEST(JsonlTest, RejectsMalformedRequests) {
  EXPECT_THROW((void)request_from_jsonl(R"({"workload": "gemm"})"),
               util::Error);  // missing config
  EXPECT_THROW((void)request_from_jsonl(R"({"config": "C1"})"),
               util::Error);  // missing workload
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": "C1", "workload": "gemm", "x": 1})"),
               util::Error);  // unknown key
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": "C1", "workload": "gemm", "mode": "bogus"})"),
               util::Error);  // unknown mode
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": 3, "workload": "gemm"})"),
               util::Error);  // wrong type
  EXPECT_THROW((void)request_from_jsonl(
                   R"({"config": "C1", "config": "C2", "workload": "g"})"),
               util::Error);  // duplicate key
  EXPECT_THROW((void)request_from_jsonl("not json"), util::Error);
  EXPECT_THROW((void)request_from_jsonl(R"({"config": "C1"} trailing)"),
               util::Error);
}

TEST(JsonlTest, ResponseSerialisationRoundTripsExactly) {
  BatchResponse resp;
  resp.index = 7;
  resp.config = "C3";
  resp.workload = "dhry\"stone";  // exercises escaping
  resp.mode = PredictMode::kTrace;
  resp.ok = true;
  resp.total_mw = 71.48132360793859;
  resp.trace_mw = {1.0 / 3.0, 38.088830629505615, 1e-12};

  const std::string line = response_to_jsonl(resp);
  const JsonValue doc = JsonValue::parse(line);
  EXPECT_EQ(doc.find("index")->as_number(), 7.0);
  EXPECT_EQ(doc.find("config")->as_string(), "C3");
  EXPECT_EQ(doc.find("workload")->as_string(), "dhry\"stone");
  EXPECT_EQ(doc.find("mode")->as_string(), "trace");
  EXPECT_TRUE(doc.find("ok")->as_bool());
  // Numbers must survive the wire bit-for-bit.
  EXPECT_EQ(doc.find("total_mw")->as_number(), resp.total_mw);
  const auto& trace = doc.find("trace_mw")->as_array();
  ASSERT_EQ(trace.size(), 3u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].as_number(), resp.trace_mw[i]);
  }
}

// The former snprintf formatter, kept as the reference: the fewest of 15,
// 16 or 17 "%.*g" digits that parse back exactly.
std::string snprintf_json_number(double value) {
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0.0;
    const auto len = std::string_view(buf).size();
    const auto [ptr, ec] = std::from_chars(buf, buf + len, parsed);
    if (ec == std::errc{} && ptr == buf + len && parsed == value) break;
  }
  return buf;
}

TEST(JsonlTest, NumberMatchesSnprintfReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, 1e15, 1e16,
      1e17, 123456789012345678.0, 1e-5, 1e-4, 0.1, 1.0 / 3.0, kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0};
  std::mt19937_64 rng(20251020);
  for (int i = 0; i < 20000; ++i) {  // every exponent, subnormals included
    values.push_back(std::bit_cast<double>(rng()));
  }
  std::uniform_real_distribution<double> power(0.0, 500.0);
  for (int i = 0; i < 20000; ++i) values.push_back(power(rng));
  for (int i = 0; i < 2000; ++i) {  // integers, small and past 2^53
    values.push_back(static_cast<double>(static_cast<std::int64_t>(rng()) >>
                                         (i % 60)));
    values.push_back(std::bit_cast<double>(rng() & 0x000fffffffffffffULL));
  }
  std::string out = "[";
  for (const double v : values) {
    out.resize(1);
    append_json_number(out, v);
    ASSERT_EQ(out.substr(1), snprintf_json_number(v))
        << "bits " << std::hex << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(JsonlTest, ErrorResponseCarriesMessage) {
  BatchResponse resp;
  resp.index = 0;
  resp.config = "C99";
  resp.workload = "gemm";
  resp.ok = false;
  resp.error = "unknown BOOM configuration: C99";
  const JsonValue doc = JsonValue::parse(response_to_jsonl(resp));
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->as_string(), resp.error);
  EXPECT_EQ(doc.find("total_mw"), nullptr);
}

TEST(JsonlTest, ReadRequestsSkipsBlankLinesAndReportsLineNumbers) {
  std::istringstream in(
      "{\"config\": \"C1\", \"workload\": \"vvadd\"}\n"
      "\n"
      "   \n"
      "{\"config\": \"C2\", \"workload\": \"median\", \"mode\": \"total\"}\n");
  const auto requests = read_requests(in);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[1].config, "C2");

  std::istringstream bad("{\"config\": \"C1\", \"workload\": \"vvadd\"}\n"
                         "{broken\n");
  try {
    (void)read_requests(bad);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(JsonlTest, JsonValueParsesNestedStructures) {
  const auto doc = JsonValue::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": null, "d": false}, "e": "A"})");
  EXPECT_EQ(doc.find("a")->as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(doc.find("b")->find("c")->is_null());
  EXPECT_FALSE(doc.find("b")->find("d")->as_bool());
  EXPECT_EQ(doc.find("e")->as_string(), "A");
}

}  // namespace
}  // namespace autopower::serve
