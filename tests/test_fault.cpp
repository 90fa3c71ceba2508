// Fault-injection coverage: every registered fault site must surface an
// injected failure as a clean error — a thrown util::Error (exit 1 at
// the CLI), a failed-but-complete batch response, or a latched stream
// state the flush check catches.  Never a crash, hang, torn report, or
// poisoned cache.
//
// Two flavours:
//   * in-process: arm a site with util::fault::ScopedFault, drive the
//     real code path, assert the failure mode AND the recovery (disarm,
//     retry, verify caches were not left with partial entries);
//   * subprocess: arm via AUTOPOWER_FAULT=... in the CLI's environment
//     and assert the process exits with code 1 (a real exit, not a
//     signal) — proving the end-to-end error path from fault point to
//     process exit code.
//
// The canonical site list lives in DESIGN.md ("fault-site registry");
// FaultSiteRegistryMatchesDesign below cross-checks that every site this
// suite exercised is one of the documented ones.  Accepts --seed=N (the
// shared proptest flag) for symmetry with test_differential.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "explore/explore.hpp"
#include "ml/gbt.hpp"
#include "power/golden.hpp"
#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/eval_cache.hpp"
#include "serve/jsonl.hpp"
#include "serve/net.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "testcore/generators.hpp"
#include "testcore/proptest.hpp"
#include "util/archive.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"
#include "util/parallel.hpp"
#include "util/structural_cache.hpp"
#include "util/thread_pool.hpp"
#include "workload/workload.hpp"

#ifndef AUTOPOWER_CLI_PATH
#define AUTOPOWER_CLI_PATH "autopower"
#endif

namespace autopower {
namespace {

namespace fault = util::fault;

// ---------------------------------------------------------------------
// Shared fixtures and helpers.

core::AutoPowerOptions tiny_options() {
  core::AutoPowerOptions opt;
  opt.clock.gbt.num_rounds = 3;
  opt.clock.gbt.tree.max_depth = 2;
  opt.sram.gbt.num_rounds = 3;
  opt.sram.gbt.tree.max_depth = 2;
  opt.logic.gbt.num_rounds = 3;
  opt.logic.gbt.tree.max_depth = 2;
  return opt;
}

std::shared_ptr<const core::AutoPowerModel> tiny_model() {
  static const auto* model = [] {
    sim::SimOptions opt;
    opt.sample_accesses = 400;
    opt.sample_branches = 400;
    sim::PerfSimulator sim(opt);
    const power::GoldenPowerModel golden;
    std::vector<core::EvalContext> ctxs;
    for (const char* cfg_name : {"C1", "C15"}) {
      const auto& cfg = arch::boom_config(cfg_name);
      for (const char* wl_name : {"dhrystone", "qsort"}) {
        const auto& wl = workload::workload_by_name(wl_name);
        core::EvalContext ctx;
        ctx.cfg = &cfg;
        ctx.workload = wl.name;
        ctx.program = workload::program_features(wl);
        ctx.events = sim.simulate(cfg, wl);
        ctxs.push_back(std::move(ctx));
      }
    }
    auto m = std::make_shared<core::AutoPowerModel>(tiny_options());
    m->train(ctxs, golden, 1);
    return new std::shared_ptr<const core::AutoPowerModel>(std::move(m));
  }();
  return *model;
}

std::vector<serve::BatchRequest> valid_requests(std::size_t n) {
  std::vector<serve::BatchRequest> reqs;
  const char* configs[] = {"C2", "C5", "C9", "C13"};
  const char* workloads[] = {"dhrystone", "qsort", "median", "towers"};
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back({configs[i % 4], workloads[(i / 4 + i) % 4],
                    serve::PredictMode::kTotal});
  }
  return reqs;
}

/// Runs the CLI with AUTOPOWER_FAULT set; returns the raw wait() status
/// and captures combined stdout+stderr.
int run_cli_with_fault(const std::string& fault_spec,
                       const std::string& args, std::string* output) {
  std::string cmd = "AUTOPOWER_FAULT='" + fault_spec + "' '" +
                    AUTOPOWER_CLI_PATH "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return -1;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) text.append(buf, n);
  if (output != nullptr) *output = std::move(text);
  return pclose(pipe);
}

/// Asserts the status is a clean exit with code 1 (error path, not a
/// crash/signal, not a silent success).
void expect_clean_error_exit(int status, const std::string& output) {
  ASSERT_TRUE(WIFEXITED(status))
      << "CLI died on a signal instead of exiting cleanly; output:\n"
      << output;
  EXPECT_EQ(WEXITSTATUS(status), 1) << "output:\n" << output;
}

class FaultCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("autopower_fault_test_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
    // A real model file written by the unfaulted CLI, reused by every
    // subprocess case.
    std::string output;
    const int status = run_cli_with_fault(
        "", "train --known C1,C15 --out '" + model_path() + "'", &output);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << output;
    std::ofstream reqs(requests_path());
    reqs << R"({"config": "C3", "workload": "dhrystone"})" << "\n"
         << R"({"config": "C7", "workload": "qsort", "mode": "total"})"
         << "\n";
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(*dir_, ec);
    delete dir_;
    dir_ = nullptr;
  }

  static std::string model_path() { return (*dir_ / "model.ap").string(); }
  static std::string requests_path() {
    return (*dir_ / "requests.jsonl").string();
  }
  static std::string out_path(const char* name) {
    return (*dir_ / name).string();
  }

  static std::filesystem::path* dir_;
};

std::filesystem::path* FaultCliTest::dir_ = nullptr;

// ---------------------------------------------------------------------
// util.thread_pool.submit / util.thread_pool.run_task

TEST(FaultThreadPool, SubmitFaultThrowsAndPoolSurvives) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  const auto task = [&ran] { ran.fetch_add(1); };
  {
    fault::ScopedFault armed("util.thread_pool.submit",
                             fault::Trigger::countdown(2));
    pool.submit(task);
    EXPECT_THROW(pool.submit(task), fault::FaultInjected);
    pool.submit(task);  // pool still accepts work after the failure
  }
  pool.shutdown();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_GT(fault::hit_count("util.thread_pool.submit"), 0u);
}

TEST(FaultThreadPool, LostTaskNeverHangsDrainAndSiblingsComplete) {
  // One worker, so the tasks behind the faulted one prove the worker
  // survived it.
  util::ThreadPool pool(1);
  std::atomic<int> ran{0};
  {
    fault::ScopedFault armed("util.thread_pool.run_task",
                             fault::Trigger::countdown(2));
    for (int i = 0; i < 6; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    pool.shutdown();  // the regression: this drain must return, not hang
  }
  EXPECT_EQ(ran.load(), 5);  // exactly the faulted task is lost
}

// A lost helper costs parallelism, never an index: parallel_for's caller
// claims whatever no helper reached.
TEST(ParallelFor, SubmitFaultLosesHelpersNotIndices) {
  std::vector<std::atomic<int>> hits(200);
  {
    fault::ScopedFault armed("util.thread_pool.submit",
                             fault::Trigger::every_nth(1));
    util::parallel_for(hits.size(), 4, [&hits](std::size_t i) {
      hits[i].fetch_add(1);
    });
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, LostHelperTaskNeverHangsOrLosesIndices) {
  std::vector<std::atomic<int>> hits(200);
  {
    fault::ScopedFault armed("util.thread_pool.run_task",
                             fault::Trigger::every_nth(1));
    util::parallel_for(hits.size(), 4, [&hits](std::size_t i) {
      hits[i].fetch_add(1);
    });
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ---------------------------------------------------------------------
// serve.engine.handle

// A failure escaping handle() fails only its own request, at every
// thread count: the serial path isolates it exactly like the threaded one.
TEST(FaultEngine, ThreadedBatchFailsOneRequestCleanly) {
  for (const std::size_t threads : {1u, 3u}) {
    serve::BatchEngine engine(
        tiny_model(), {.threads = threads, .memoize_responses = false});
    const auto requests = valid_requests(6);
    std::vector<serve::BatchResponse> responses;
    {
      fault::ScopedFault armed("serve.engine.handle",
                               fault::Trigger::countdown(1));
      responses = engine.run(requests);  // must return, not hang or throw
    }
    ASSERT_EQ(responses.size(), requests.size());
    std::size_t failed = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const auto& r = responses[i];
      EXPECT_EQ(r.index, i);
      if (!r.ok) {
        ++failed;
        EXPECT_EQ(r.config, requests[i].config);
        EXPECT_NE(r.error.find("injected fault"), std::string::npos)
            << r.error;
      } else {
        EXPECT_GT(r.total_mw, 0.0);
      }
    }
    EXPECT_EQ(failed, 1u) << "threads=" << threads;
    // Recovery: the same batch succeeds completely once disarmed.
    for (const auto& r : engine.run(requests)) {
      EXPECT_TRUE(r.ok) << r.error;
    }
  }
}

TEST(FaultEngine, FailedResponseIsNeverMemoized) {
  // A transient fault must not poison the response memo: the failed
  // response is returned but NOT cached, so the retry recomputes.
  serve::BatchEngine engine(tiny_model(),
                            {.threads = 1, .memoize_responses = true});
  const std::vector<serve::BatchRequest> one = {
      {"C4", "dhrystone", serve::PredictMode::kTotal}};
  {
    // Fault below handle()'s memo layer: compute() folds the eval-cache
    // failure into an ok == false response, which then reaches the
    // memoisation decision.
    fault::ScopedFault armed("serve.eval_cache.compute",
                             fault::Trigger::countdown(1));
    const auto first = engine.run(one);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_FALSE(first[0].ok);
    EXPECT_NE(first[0].error.find("injected fault"), std::string::npos);
  }
  const auto stats_after_failure = engine.response_stats();
  EXPECT_EQ(stats_after_failure.hits, 0u);
  EXPECT_EQ(stats_after_failure.misses, 1u);  // failed compute counts a miss
  // Disarmed retry must recompute and succeed — a poisoned memo would
  // replay the failure forever.
  const auto second = engine.run(one);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].ok) << second[0].error;
  // And the success IS memoised: a third run answers from the memo.
  const auto third = engine.run(one);
  EXPECT_TRUE(third[0].ok);
  EXPECT_EQ(third[0].total_mw, second[0].total_mw);
  EXPECT_EQ(engine.response_stats().hits, 1u);
}

// ---------------------------------------------------------------------
// serve.eval_cache.compute / serve.eval_cache.insert (satellite: the
// first-insert-wins fill must never publish a partial entry)

TEST(FaultEvalCache, ThrowingComputeLeavesNoPartialEntry) {
  serve::EvalCache cache(4);
  const sim::PerfSimulator sim;
  {
    fault::ScopedFault armed("serve.eval_cache.compute",
                             fault::Trigger::countdown(1));
    EXPECT_THROW((void)cache.get_or_compute("feedfacefeedface", "C3", "dhrystone", sim),
                 fault::FaultInjected);
  }
  EXPECT_EQ(cache.size(), 0u);  // nothing published
  // Recovery: the same key computes fine afterwards and is cached.
  const auto ctx = cache.get_or_compute("feedfacefeedface", "C3", "dhrystone", sim);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  const auto again = cache.get_or_compute("feedfacefeedface", "C3", "dhrystone", sim);
  EXPECT_EQ(ctx.get(), again.get());  // served from cache
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(FaultEvalCache, ThrowingInsertLeavesNoPartialEntry) {
  serve::EvalCache cache(4);
  const sim::PerfSimulator sim;
  {
    fault::ScopedFault armed("serve.eval_cache.insert",
                             fault::Trigger::countdown(1));
    EXPECT_THROW((void)cache.get_or_compute("feedfacefeedface", "C5", "qsort", sim),
                 fault::FaultInjected);
  }
  EXPECT_EQ(cache.size(), 0u);
  const auto ctx = cache.get_or_compute("feedfacefeedface", "C5", "qsort", sim);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// util.structural_cache.fill / util.structural_cache.insert

TEST(FaultStructuralCache, ThrowingFillLeavesNoPartialEntry) {
  util::StructuralSimCache cache(2);
  const auto compute = [] { return 1.5; };
  {
    fault::ScopedFault armed("util.structural_cache.fill",
                             fault::Trigger::countdown(1));
    EXPECT_THROW((void)cache.get_or_compute(
                     util::StructuralSimCache::SubSim::kICache, 42, compute),
                 fault::FaultInjected);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get_or_compute(util::StructuralSimCache::SubSim::kICache,
                                 42, compute),
            1.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FaultStructuralCache, ThrowingInsertLeavesNoPartialEntry) {
  util::StructuralSimCache cache(2);
  const auto compute = [] { return 2.5; };
  {
    fault::ScopedFault armed("util.structural_cache.insert",
                             fault::Trigger::countdown(1));
    EXPECT_THROW((void)cache.get_or_compute(
                     util::StructuralSimCache::SubSim::kBranch, 7, compute),
                 fault::FaultInjected);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get_or_compute(util::StructuralSimCache::SubSim::kBranch,
                                 7, compute),
            2.5);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // only the successful insert counted
}

// ---------------------------------------------------------------------
// serve.jsonl.read_line / serve.jsonl.write_response

TEST(FaultJsonl, ReadFaultSurfacesWithLineNumber) {
  std::istringstream in(
      "{\"config\": \"C1\", \"workload\": \"dhrystone\"}\n"
      "{\"config\": \"C2\", \"workload\": \"qsort\"}\n"
      "{\"config\": \"C3\", \"workload\": \"median\"}\n");
  fault::ScopedFault armed("serve.jsonl.read_line",
                           fault::Trigger::countdown(2));
  try {
    (void)serve::read_requests(in);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultJsonl, WriteFaultLatchesStreamForFlushCheck) {
  std::vector<serve::BatchResponse> responses(2);
  responses[0].index = 0;
  responses[0].config = "C1";
  responses[0].workload = "dhrystone";
  responses[0].ok = true;
  responses[0].total_mw = 10.0;
  responses[1] = responses[0];
  responses[1].index = 1;
  std::ostringstream out;
  fault::ScopedFault armed("serve.jsonl.write_response",
                           fault::Trigger::countdown(2));
  serve::write_responses(out, responses);  // must not throw or crash
  EXPECT_TRUE(out.bad());  // latched exactly like a full disk
  EXPECT_THROW(util::flush_and_check(out, "responses"), util::Error);
}

// ---------------------------------------------------------------------
// serve.report.write_row

TEST(FaultSweepReport, RowWriteFaultLatchesStream) {
  serve::SweepSpec spec;
  spec.base = "C8";
  spec.workloads = {"dhrystone"};
  const auto report = serve::run_sweep(*tiny_model(), spec);
  std::ostringstream out;
  fault::ScopedFault armed("serve.report.write_row",
                           fault::Trigger::countdown(1));
  serve::write_sweep_report(out, report);
  EXPECT_TRUE(out.bad());
  EXPECT_THROW(util::flush_and_check(out, "sweep report"), util::Error);
}

// ---------------------------------------------------------------------
// serve.checkpoint.write / serve.checkpoint.load

class FaultCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("autopower_ckpt_fault_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  serve::SweepSpec spec() const {
    serve::SweepSpec s;
    s.base = "C8";
    s.workloads = {"dhrystone"};
    s.checkpoint = (dir_ / "sweep.ckpt").string();
    return s;
  }
  std::filesystem::path dir_;
};

TEST_F(FaultCheckpoint, WriteFaultFailsTheSweepNotSilently) {
  // countdown(1) fires on the header flush, countdown(2) on the final
  // row-batch flush — both must surface as util::Error, never as a sweep
  // that "succeeded" without crash safety.
  for (const int nth : {1, 2}) {
    auto s = spec();
    fault::ScopedFault armed("serve.checkpoint.write",
                             fault::Trigger::countdown(nth));
    EXPECT_THROW((void)serve::run_sweep(*tiny_model(), s), util::Error)
        << "countdown " << nth;
  }
}

TEST_F(FaultCheckpoint, LoadFaultFailsTheResume) {
  auto s = spec();
  (void)serve::run_sweep(*tiny_model(), s);  // write a valid checkpoint
  s.resume = true;
  fault::ScopedFault armed("serve.checkpoint.load",
                           fault::Trigger::countdown(1));
  EXPECT_THROW((void)serve::run_sweep(*tiny_model(), s), util::Error);
  // Disarmed, the same resume replays cleanly.
  const auto report = serve::run_sweep(*tiny_model(), s);
  EXPECT_EQ(report.resumed, 1u);
}

// ---------------------------------------------------------------------
// serve.explore.generation

TEST_F(FaultCheckpoint, ExploreGenerationFaultLeavesResumableCheckpoint) {
  explore::ExploreSpec spec;
  spec.base = "C8";
  spec.axes = serve::parse_grid("RobEntry=48,64,96;FetchBufferEntry=8,16");
  spec.workloads = {"dhrystone"};
  spec.seed = 11;
  spec.population = 4;
  spec.generations = 3;
  // Uninterrupted reference run (no checkpoint).
  const auto reference = explore::run_explore(*tiny_model(), spec);
  std::ostringstream ref_bytes;
  explore::write_frontier(ref_bytes, reference);

  // Fault at the top of the second generation: run_explore must throw
  // (never return a torn frontier) and leave the first generation's
  // verified rows behind in an intact checkpoint.
  spec.checkpoint = (dir_ / "explore.ckpt").string();
  {
    fault::ScopedFault armed("serve.explore.generation",
                             fault::Trigger::countdown(2));
    EXPECT_THROW((void)explore::run_explore(*tiny_model(), spec),
                 fault::FaultInjected);
  }
  ASSERT_TRUE(std::filesystem::exists(spec.checkpoint));
  // Disarmed, the resume replays those rows and converges to the exact
  // frontier bytes of the uninterrupted run.
  spec.resume = true;
  const auto resumed = explore::run_explore(*tiny_model(), spec);
  EXPECT_GT(resumed.resumed, 0u);
  std::ostringstream res_bytes;
  explore::write_frontier(res_bytes, resumed);
  EXPECT_EQ(res_bytes.str(), ref_bytes.str());
}

// ---------------------------------------------------------------------
// util.io.flush

TEST(FaultIo, FlushFaultBecomesWriteError) {
  std::ostringstream out;
  out << "report body\n";
  fault::ScopedFault armed("util.io.flush", fault::Trigger::countdown(1));
  try {
    util::flush_and_check(out, "the report");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("the report"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("failed state"), std::string::npos);
  }
}

// ---------------------------------------------------------------------
// util.archive.write / util.archive.read

TEST(FaultArchive, WriteFaultThrowsCleanly) {
  ml::GbtOptions opt;
  opt.num_rounds = 2;
  ml::GBTRegressor model(opt);
  ml::Dataset data({"x"});
  data.add_sample(std::vector<double>{1.0}, 2.0);
  data.add_sample(std::vector<double>{2.0}, 3.0);
  data.add_sample(std::vector<double>{3.0}, 5.0);
  model.fit(data);

  std::ostringstream out;
  util::ArchiveWriter writer(out);
  fault::ScopedFault armed("util.archive.write",
                           fault::Trigger::countdown(3));
  EXPECT_THROW(model.save(writer), fault::FaultInjected);
}

TEST(FaultArchive, ReadFaultThrowsCleanlyMidLoad) {
  ml::GbtOptions opt;
  opt.num_rounds = 2;
  ml::GBTRegressor model(opt);
  ml::Dataset data({"x"});
  data.add_sample(std::vector<double>{1.0}, 2.0);
  data.add_sample(std::vector<double>{2.0}, 3.0);
  data.add_sample(std::vector<double>{3.0}, 5.0);
  model.fit(data);
  std::ostringstream out;
  util::ArchiveWriter writer(out);
  model.save(writer);

  std::istringstream in(out.str());
  util::ArchiveReader reader(in);
  ml::GBTRegressor loaded;
  fault::ScopedFault armed("util.archive.read",
                           fault::Trigger::countdown(4));
  EXPECT_THROW(loaded.load(reader), fault::FaultInjected);
}

// The registry's first-insert-wins publication contract: a load that
// throws (here: an injected archive-read failure) must never publish a
// named slot — no half-loaded model may become routable, and the slot
// name stays free for a later, successful open.  Reuses the existing
// util.archive.read site; no registry-private fault point is needed.
TEST_F(FaultCliTest, RegistryThrowingLoadNeverPublishesSlot) {
  serve::ModelRegistry registry;
  {
    fault::ScopedFault armed("util.archive.read",
                             fault::Trigger::countdown(1));
    EXPECT_THROW((void)registry.open("boom", model_path()),
                 fault::FaultInjected);
  }
  EXPECT_EQ(registry.named("boom"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.names().empty());

  // Recovery: the same name binds fine once the fault clears, and a
  // subsequent armed reload_named keeps the published snapshot.
  const auto model = registry.open("boom", model_path());
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(registry.size(), 1u);
  {
    fault::ScopedFault armed("util.archive.read",
                             fault::Trigger::countdown(1));
    EXPECT_THROW((void)registry.reload_named("boom"),
                 fault::FaultInjected);
  }
  EXPECT_EQ(registry.named("boom").get(), model.get());
  EXPECT_EQ(registry.named("boom")->fingerprint(), model->fingerprint());
}

// ---------------------------------------------------------------------
// Subprocess: AUTOPOWER_FAULT environment arming, CLI must exit 1.

TEST_F(FaultCliTest, BatchReadFaultExitsOne) {
  std::string output;
  const int status = run_cli_with_fault(
      "serve.jsonl.read_line=countdown:1",
      "batch --model '" + model_path() + "' --requests '" +
          requests_path() + "'",
      &output);
  expect_clean_error_exit(status, output);
  EXPECT_NE(output.find("injected fault"), std::string::npos) << output;
}

TEST_F(FaultCliTest, BatchOutputFlushFaultExitsOne) {
  const std::string out_file = out_path("batch_out.jsonl");
  std::string output;
  const int status = run_cli_with_fault(
      "util.io.flush=countdown:1",
      "batch --model '" + model_path() + "' --requests '" +
          requests_path() + "' --out '" + out_file + "'",
      &output);
  expect_clean_error_exit(status, output);
  EXPECT_NE(output.find("write failed"), std::string::npos) << output;
}

TEST_F(FaultCliTest, ModelLoadFaultExitsOne) {
  std::string output;
  const int status = run_cli_with_fault(
      "util.archive.read=countdown:5",
      "predict --model '" + model_path() +
          "' --config C8 --workload dhrystone",
      &output);
  expect_clean_error_exit(status, output);
}

TEST_F(FaultCliTest, TrainArchiveWriteFaultExitsOne) {
  std::string output;
  const int status = run_cli_with_fault(
      "util.archive.write=countdown:10",
      "train --known C1,C15 --out '" + out_path("faulted_model.ap") + "'",
      &output);
  expect_clean_error_exit(status, output);
}

TEST_F(FaultCliTest, SweepReportWriteFaultExitsOne) {
  std::string output;
  const int status = run_cli_with_fault(
      "serve.report.write_row=countdown:1",
      "sweep --model '" + model_path() +
          "' --workloads dhrystone --base C8 --out '" +
          out_path("sweep_out.jsonl") + "'",
      &output);
  expect_clean_error_exit(status, output);
}

TEST_F(FaultCliTest, SweepCheckpointWriteFaultExitsOne) {
  std::string output;
  const int status = run_cli_with_fault(
      "serve.checkpoint.write=countdown:1",
      "sweep --model '" + model_path() +
          "' --workloads dhrystone --base C8 --grid RobEntry=64,96 "
          "--checkpoint '" +
          out_path("faulted.ckpt") + "' --out '" +
          out_path("sweep_ckpt_out.jsonl") + "'",
      &output);
  expect_clean_error_exit(status, output);
  EXPECT_NE(output.find("checkpoint"), std::string::npos) << output;
}

TEST_F(FaultCliTest, SweepResumeLoadFaultExitsOne) {
  const std::string ckpt = out_path("resume_fault.ckpt");
  std::string output;
  int status = run_cli_with_fault(
      "",
      "sweep --model '" + model_path() +
          "' --workloads dhrystone --base C8 --grid RobEntry=64,96 "
          "--checkpoint '" + ckpt + "' --out '" +
          out_path("resume_fault_out.jsonl") + "'",
      &output);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << output;

  status = run_cli_with_fault(
      "serve.checkpoint.load=countdown:1",
      "sweep --model '" + model_path() +
          "' --workloads dhrystone --base C8 --grid RobEntry=64,96 "
          "--checkpoint '" + ckpt + "' --resume --out '" +
          out_path("resume_fault_out.jsonl") + "'",
      &output);
  expect_clean_error_exit(status, output);
}

TEST_F(FaultCliTest, ExploreGenerationFaultExitsOneThenResumesByteIdentical) {
  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  const std::string common =
      "explore --model '" + model_path() +
      "' --workloads dhrystone --base C8 --grid RobEntry=48,64,96 "
      "--seed 5 --population 4 --generations 3 --threads 1 ";
  const std::string out_clean = out_path("explore_clean.jsonl");
  std::string output;
  int status =
      run_cli_with_fault("", common + "--out '" + out_clean + "'", &output);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << output;

  // Mid-generation fault: clean exit 1 (not a signal), no frontier
  // written, checkpoint left behind for the resume.
  const std::string ckpt = out_path("explore_fault.ckpt");
  const std::string out_resumed = out_path("explore_resumed.jsonl");
  status = run_cli_with_fault(
      "serve.explore.generation=countdown:2",
      common + "--checkpoint '" + ckpt + "' --out '" + out_resumed + "'",
      &output);
  expect_clean_error_exit(status, output);
  EXPECT_NE(output.find("injected fault"), std::string::npos) << output;
  EXPECT_TRUE(std::filesystem::exists(ckpt));
  EXPECT_FALSE(std::filesystem::exists(out_resumed));

  // Disarmed resume: exit 0 and a frontier byte-identical to the
  // uninterrupted run's.
  status = run_cli_with_fault(
      "",
      common + "--checkpoint '" + ckpt + "' --resume --out '" + out_resumed +
          "'",
      &output);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << output;
  EXPECT_EQ(read_file(out_resumed), read_file(out_clean));
}

TEST_F(FaultCliTest, MalformedFaultSpecExitsOne) {
  std::string output;
  const int status = run_cli_with_fault(
      "serve.jsonl.read_line=bogus:x",
      "batch --model '" + model_path() + "' --requests '" +
          requests_path() + "'",
      &output);
  expect_clean_error_exit(status, output);
  EXPECT_NE(output.find("fault"), std::string::npos) << output;
}

// ---------------------------------------------------------------------
// Concurrent faulting (the TSan target): probabilistic faults on the
// structural-cache fill while a threaded engine runs.  Nothing may
// crash, hang, or leave a cache entry that poisons the recovery run.

TEST(FaultConcurrent, ProbabilisticStructuralFaultsUnderThreadedBatch) {
  serve::BatchEngine engine(tiny_model(),
                            {.threads = 3, .memoize_responses = false});
  const auto requests = valid_requests(8);
  {
    fault::ScopedFault armed(
        "util.structural_cache.fill",
        fault::Trigger::probability(0.3, /*seed=*/testcore::Pcg32(1)
                                             .next_u64()));
    const auto responses = engine.run(requests);  // must complete
    ASSERT_EQ(responses.size(), requests.size());
    for (const auto& r : responses) {
      if (!r.ok) {
        EXPECT_NE(r.error.find("injected fault"), std::string::npos)
            << r.error;
      }
    }
  }
  // Recovery run: every request succeeds; no cache slot was poisoned.
  for (const auto& r : engine.run(requests)) {
    EXPECT_TRUE(r.ok) << r.error;
  }
}

TEST(FaultConcurrent, ThreadPoolSurvivesProbabilisticTaskFaults) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  constexpr int kTasks = 64;
  {
    fault::ScopedFault armed("util.thread_pool.run_task",
                             fault::Trigger::probability(0.25, 99));
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    pool.shutdown();  // never hangs, whatever subset of tasks died
  }
  // The trigger decides hit k by mix64(seed, k) whatever thread takes
  // it, and re-arming resets the hit counter, so replaying the same
  // arming counts exactly the tasks that died: only those may be lost.
  int fired = 0;
  {
    fault::ScopedFault armed("util.thread_pool.run_task",
                             fault::Trigger::probability(0.25, 99));
    for (int i = 0; i < kTasks; ++i) {
      fired += fault::should_fail("util.thread_pool.run_task") ? 1 : 0;
    }
  }
  EXPECT_GT(fired, 0);  // p=0.25 over 64 tasks fires
  EXPECT_EQ(ran.load() + fired, kTasks);
}

// ---------------------------------------------------------------------
// Serving-daemon fault sites: a live loopback daemon, faults injected at
// each socket seam and at the admission decision.  The client side below
// uses raw send/recv ONLY — net::write_line / net::LineReader carry the
// very sites being armed, and the trigger is process-global.

/// Daemon on an ephemeral port; destructor drains gracefully.
struct FaultDaemon {
  explicit FaultDaemon(serve::DaemonOptions options = {})
      : daemon(tiny_model(), options), server([this] { daemon.serve(); }) {}
  ~FaultDaemon() {
    daemon.notify_stop();
    server.join();
  }
  serve::Daemon daemon;
  std::thread server;
};

/// Sends `blob`, half-closes, returns all response lines (raw recv).
std::vector<std::string> daemon_roundtrip(std::uint16_t port,
                                          const std::string& blob) {
  const serve::net::Socket sock = serve::net::connect_loopback(port);
  std::size_t sent = 0;
  while (sent < blob.size()) {
    const ssize_t n = ::send(sock.fd(), blob.data() + sent,
                             blob.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(sock.fd(), SHUT_WR);
  std::string data;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  std::vector<std::string> lines;
  std::istringstream in(data);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

constexpr const char* kDaemonRequest =
    "{\"config\": \"C2\", \"workload\": \"qsort\"}\n";

TEST(FaultDaemonSites, AcceptFailureRetriesAndServes) {
  FaultDaemon fd;
  {
    // The accept attempt dies before accept(2) runs; the pending
    // connection stays in the listen backlog, so the retry (next poll
    // iteration) serves the same client.  One fault, zero user impact.
    fault::ScopedFault armed("serve.net.accept",
                             fault::Trigger::countdown(1));
    const auto lines = daemon_roundtrip(fd.daemon.port(), kDaemonRequest);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos) << lines[0];
  }
  EXPECT_GE(fd.daemon.stats().net_errors, 1u);
}

TEST(FaultDaemonSites, ReadFailureClosesOnlyThatConnection) {
  FaultDaemon fd;
  {
    fault::ScopedFault armed("serve.net.read", fault::Trigger::countdown(1));
    // The victim's first recv in the daemon dies mid-line: clean close
    // (EOF, no response), never a crash or hang.
    EXPECT_TRUE(daemon_roundtrip(fd.daemon.port(), kDaemonRequest).empty());
  }
  EXPECT_GE(fd.daemon.stats().net_errors, 1u);
  // Disarmed: the daemon serves the next client in full.
  const auto lines = daemon_roundtrip(fd.daemon.port(), kDaemonRequest);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos) << lines[0];
}

TEST(FaultDaemonSites, WriteFailureTearsDownOnlyThatConnection) {
  FaultDaemon fd;
  {
    fault::ScopedFault armed("serve.net.write",
                             fault::Trigger::countdown(1));
    // The response write dies: the victim sees EOF (no torn half-line),
    // and only that connection is affected.
    EXPECT_TRUE(daemon_roundtrip(fd.daemon.port(), kDaemonRequest).empty());
  }
  EXPECT_GE(fd.daemon.stats().net_errors, 1u);
  const auto lines = daemon_roundtrip(fd.daemon.port(), kDaemonRequest);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\": true"), std::string::npos) << lines[0];
}

TEST(FaultDaemonSites, AdmitFaultShedsWithStructuredError) {
  FaultDaemon fd;
  {
    // Forces the admission decision to "queue full" for the first
    // compute request: the deterministic handle on the shed path.
    fault::ScopedFault armed("serve.daemon.admit",
                             fault::Trigger::countdown(1));
    const auto lines = daemon_roundtrip(
        fd.daemon.port(), std::string(kDaemonRequest) + kDaemonRequest);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"error\": \"overloaded\""), std::string::npos)
        << lines[0];
    EXPECT_NE(lines[1].find("\"ok\": true"), std::string::npos) << lines[1];
  }
  EXPECT_EQ(fd.daemon.stats().shed, 1u);
}

// ---------------------------------------------------------------------
// Registry coverage: every site this binary exercised is a documented
// one, and every documented site was exercised (keeps DESIGN.md's
// fault-site registry honest).

TEST(FaultRegistry, AllDocumentedSitesExercised) {
  const std::vector<std::string> documented = {
      "serve.checkpoint.load",
      "serve.checkpoint.write",
      "serve.daemon.admit",
      "serve.engine.handle",
      "serve.eval_cache.compute",
      "serve.eval_cache.insert",
      "serve.explore.generation",
      "serve.jsonl.read_line",
      "serve.jsonl.write_response",
      "serve.net.accept",
      "serve.net.read",
      "serve.net.write",
      "serve.report.write_row",
      "util.archive.read",
      "util.archive.write",
      "util.io.flush",
      "util.structural_cache.fill",
      "util.structural_cache.insert",
      "util.thread_pool.run_task",
      "util.thread_pool.submit",
  };
  const auto seen = fault::sites_seen();
  for (const auto& site : documented) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), site), seen.end())
        << "documented fault site never evaluated in-process: " << site;
  }
  for (const auto& site : seen) {
    EXPECT_NE(std::find(documented.begin(), documented.end(), site),
              documented.end())
        << "fault site not in DESIGN.md registry: " << site;
  }
}

}  // namespace
}  // namespace autopower

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  autopower::testcore::apply_cli_flags(&argc, argv);
#if !defined(AUTOPOWER_FAULT_INJECTION)
  // Release builds compile every fault point out, so nothing here can
  // fire; 77 is this binary's ctest SKIP_RETURN_CODE.
  std::printf("[  SKIPPED ] fault points are compiled out\n");
  return 77;
#endif
  return RUN_ALL_TESTS();
}
