// Batch serving throughput: requests/sec of the serve::BatchEngine at 1,
// 4, and hardware_concurrency threads on a 200-request design-space-
// exploration sweep, against the serial predict path it replaces.
//
// The serial baseline is the status-quo per-query path (what `autopower
// predict` does for every invocation): build the evaluation context from
// scratch — including a cold PerfSimulator::simulate — then predict.  The
// engine attacks that cost on four axes: the response memo answers exact
// repeat queries outright, the structural cache under its one simulator
// shares the cache/TLB/branch measurements across (config, workload)
// pairs, each worker predicts its chunk of misses in one batched call,
// and the workers run concurrently.  On a single-core host the speedup is
// the caches' and the batching's; on a multi-core host the thread counts
// separate further.
//
// A second stage measures the daemon wire path end to end: a real
// serve::Daemon on a loopback TCP socket, the same 200 requests sent as
// JSONL.  A closed-loop pass (one request outstanding) yields p50/p99
// round-trip latency; a pipelined pass (all requests streamed, then all
// responses read) yields daemon req/s.  Both passes must return lines
// byte-identical to `serve::response_to_jsonl` over a fresh engine run —
// the same bit-identity `autopower batch` guarantees.
//
// The bench FAILS (exit 1) if any parallel run is not bit-identical to
// the serial baseline, if the 4-thread engine is below the 2.5x
// speedup bar over the serial baseline, or if a daemon response line
// diverges.  `--json <path>` additionally writes the headline numbers
// for tools/check.sh to collect.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "power/golden.hpp"
#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/jsonl.hpp"
#include "serve/net.hpp"
#include "sim/perfsim.hpp"
#include "workload/workload.hpp"

using namespace autopower;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

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

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  // Train the model exactly like the paper's 2-configuration experiment.
  sim::PerfSimulator sim;
  power::GoldenPowerModel golden;
  const auto data = exp::ExperimentData::build(sim, golden);
  const auto known = exp::ExperimentData::training_configs(2);
  auto model = std::make_shared<core::AutoPowerModel>();
  model->train(data.contexts_of(known), golden);

  // A 200-request DSE sweep: an optimiser revisiting a 10-config x
  // 4-workload neighbourhood, so (config, workload) pairs repeat — the
  // realistic shape batch serving exists for.
  const std::vector<std::string> configs = {"C2", "C3", "C4",  "C6",  "C7",
                                            "C9", "C11", "C12", "C13", "C14"};
  const std::vector<std::string> workloads = {"dhrystone", "qsort", "towers",
                                              "spmv"};
  constexpr std::size_t kRequests = 200;
  std::vector<serve::BatchRequest> requests;
  requests.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.push_back({configs[i % configs.size()],
                        workloads[(i / configs.size()) % workloads.size()],
                        serve::PredictMode::kTotal});
  }

  // Serial baseline: fresh context (cold simulate) per request, exactly
  // the per-query cost of the pre-batching predict path.
  std::vector<double> serial(kRequests);
  const auto serial_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kRequests; ++i) {
    sim::PerfSimulator per_query_sim;
    serial[i] = model->predict_total(
        make_context(per_query_sim, requests[i].config,
                     requests[i].workload));
  }
  const double serial_s = seconds_since(serial_start);
  std::printf("serial predict loop      : %7.1f req/s  (%.3f s)\n",
              kRequests / serial_s, serial_s);

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts = {1, 4};
  if (hw != 1 && hw != 4) thread_counts.push_back(hw);
  bool identical = true;
  double speedup_at_4 = 0.0;
  for (const std::size_t threads : thread_counts) {
    // Fresh engine per run: every timing starts from a cold cache.
    serve::BatchEngine engine(model, {.threads = threads});
    const auto start = std::chrono::steady_clock::now();
    const auto responses = engine.run(requests);
    const double elapsed = seconds_since(start);
    const double speedup = serial_s / elapsed;
    if (threads == 4) speedup_at_4 = speedup;

    for (std::size_t i = 0; i < kRequests; ++i) {
      if (!responses[i].ok || responses[i].total_mw != serial[i]) {
        identical = false;
      }
    }
    const auto sim_stats = engine.cache().stats();
    const auto resp_stats = engine.response_stats();
    std::printf(
        "engine @ %2zu thread%s      : %7.1f req/s  (%.3f s, %.2fx vs "
        "serial; memo %llu/%llu, structural memo %llu/%llu hit/miss)\n",
        threads, threads == 1 ? " " : "s", kRequests / elapsed, elapsed,
        speedup, static_cast<unsigned long long>(resp_stats.hits),
        static_cast<unsigned long long>(resp_stats.misses),
        static_cast<unsigned long long>(sim_stats.hits),
        static_cast<unsigned long long>(sim_stats.misses));
  }

  std::printf("bit-identical to serial  : %s\n", identical ? "yes" : "NO");
  std::printf("speedup @ 4 threads      : %.2fx (bar: 2.50x)\n", speedup_at_4);

  // Daemon wire path: real TCP loopback through a resident daemon.  The
  // expected response lines come from a fresh engine run — the daemon's
  // per-connection index is the request ordinal, so the lines must match
  // serve::response_to_jsonl byte for byte.
  std::vector<std::string> expected_lines(kRequests);
  {
    serve::BatchEngine oracle(model, {.threads = 4});
    const auto responses = oracle.run(requests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      expected_lines[i] = serve::response_to_jsonl(responses[i]);
    }
  }
  std::vector<std::string> request_lines(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    request_lines[i] = "{\"config\": \"" + requests[i].config +
                       "\", \"workload\": \"" + requests[i].workload + "\"}";
  }

  serve::DaemonOptions daemon_options;
  daemon_options.engine.threads = 4;
  serve::Daemon daemon(model, daemon_options);
  std::thread server([&daemon] { daemon.serve(); });
  const std::uint16_t port = daemon.port();

  bool daemon_identical = true;
  // Closed-loop pass: one request outstanding per round trip, so each
  // sample is a full wire latency (parse + admit + dispatch + deliver).
  std::vector<double> latency_us;
  latency_us.reserve(kRequests);
  {
    auto sock = serve::net::connect_loopback(port);
    serve::net::LineReader reader(sock.fd());
    std::string line;
    for (std::size_t i = 0; i < kRequests; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      serve::net::write_line(sock.fd(), request_lines[i]);
      if (!reader.next_line(line)) {
        daemon_identical = false;
        break;
      }
      latency_us.push_back(seconds_since(t0) * 1e6);
      if (line != expected_lines[i]) daemon_identical = false;
    }
  }
  std::sort(latency_us.begin(), latency_us.end());
  const auto percentile = [&latency_us](double p) {
    if (latency_us.empty()) return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        p * static_cast<double>(latency_us.size() - 1));
    return latency_us[rank];
  };
  const double p50_us = percentile(0.50);
  const double p99_us = percentile(0.99);

  // Pipelined pass on a fresh connection: stream every request, then
  // read every response — the daemon coalesces them into shared batches.
  double daemon_req_per_s = 0.0;
  {
    auto sock = serve::net::connect_loopback(port);
    const auto start = std::chrono::steady_clock::now();
    for (const auto& line : request_lines) {
      serve::net::write_line(sock.fd(), line);
    }
    sock.shutdown_write();
    serve::net::LineReader reader(sock.fd());
    std::string line;
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (!reader.next_line(line) || line != expected_lines[i]) {
        daemon_identical = false;
        break;
      }
    }
    daemon_req_per_s = kRequests / seconds_since(start);
  }
  daemon.notify_stop();
  server.join();

  std::printf("daemon pipelined         : %7.1f req/s\n", daemon_req_per_s);
  std::printf("daemon closed-loop p50   : %7.1f us\n", p50_us);
  std::printf("daemon closed-loop p99   : %7.1f us\n", p99_us);
  std::printf("daemon bit-identical     : %s\n",
              daemon_identical ? "yes" : "NO");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\n"
                   "  \"serial_req_per_s\": %.1f,\n"
                   "  \"engine_4thread_speedup\": %.3f,\n"
                   "  \"bit_identical\": %s,\n"
                   "  \"daemon_req_per_s\": %.1f,\n"
                   "  \"daemon_p50_us\": %.1f,\n"
                   "  \"daemon_p99_us\": %.1f,\n"
                   "  \"daemon_bit_identical\": %s\n"
                   "}\n",
                   kRequests / serial_s, speedup_at_4,
                   identical ? "true" : "false", daemon_req_per_s, p50_us,
                   p99_us, daemon_identical ? "true" : "false");
      std::fclose(f);
    }
  }
  if (!identical) {
    std::printf("FAIL: parallel results diverged from the serial baseline\n");
    return 1;
  }
  if (speedup_at_4 < 2.5) {
    std::printf("FAIL: below the 2.5x speedup bar\n");
    return 1;
  }
  if (!daemon_identical) {
    std::printf("FAIL: daemon responses diverged from the engine oracle\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
