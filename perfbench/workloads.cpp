// The timed end-to-end workloads.  Each loops its operation until the
// run's seconds are spent (the operation in flight finishes), then checks
// its outputs against an in-process oracle; a mismatch counts as a failed
// operation.
//
// End-to-end metrics, with the operation of each workload:
//   throughput_per_s  sweep: cells/s, median over sweeps; trace: 50-cycle
//                     windows/s, median over traces; serve: requests/s,
//                     median over 0.5 s windows
//   latency_p50_us /  sweep: one streaming sweep to its ranked report;
//   latency_tail_us   trace: one trace; serve: one request, timed from
//                     send to the full response line.  The tail is the
//                     highest nearest-rank percentile, at most the 99th,
//                     with at least ten samples beyond it (see
//                     tail_percentile); the sample count is printed.
#include <map>
#include <sstream>
#include <thread>

#include "exp/trace.hpp"
#include "inputs.hpp"
#include "runner.hpp"
#include "serve/jsonl.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"

namespace perfbench {

namespace {

/// The highest percentile, at most the 99th, that leaves at least ten of
/// `n` samples above it; the median when there are fewer than 20.
double tail_percentile(std::size_t n) {
  if (n < 20) return 50.0;
  return std::min(99.0, 100.0 * (1.0 - 10.0 / static_cast<double>(n)));
}

/// Sweep and trace: each operation is long, so throughput is the median
/// over operations of units per second, and latency is per operation.
void add_op_metrics(Result& result, const std::vector<double>& units,
                    const std::vector<double>& seconds, const char* op) {
  std::vector<double> rate, latency_us;
  for (std::size_t i = 0; i < units.size(); ++i) {
    rate.push_back(units[i] / seconds[i]);
    latency_us.push_back(seconds[i] * 1e6);
  }
  const double tail = tail_percentile(latency_us.size());
  result.add("throughput_per_s", median(rate), "1/s");
  result.add("latency_p50_us", percentile(latency_us, 50), "us");
  result.add("latency_tail_us", percentile(latency_us, tail), "us");
  Result::note("latency", std::to_string(latency_us.size()) + " " + op +
                              " timed; p50 " +
                              num(percentile(latency_us, 50)) +
                              " us; tail p" + num(tail) + " " +
                              num(percentile(latency_us, tail)) + " us");
}

}  // namespace

Result run_sweep_workload(const Env& env, Prepared& prepared) {
  const auto& model = *prepared.model;
  ap::serve::SweepSpec spec;
  spec.base = "C8";
  spec.workloads = evaluation_workloads();
  spec.threads = 2;
  spec.top = 16;

  // Report cells kept for the oracle: two seeded picks per report.
  struct Picked {
    ap::arch::HardwareConfig cfg;
    std::size_t workload = 0;
    ap::serve::SweepCell cell;
  };
  std::vector<Picked> picked;
  SplitMix pick(derive_seed(env.seed, kTagOracle));
  Result result;
  std::vector<double> cells, seconds;
  Digest first_report;

  const auto deadline = deadline_after(Clock::now(), env.seconds);
  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    spec.axes = sweep_grid(env.seed, k).axes;
    const auto t = Clock::now();
    const ap::serve::SweepReport report = ap::serve::run_sweep(model, spec);
    seconds.push_back(seconds_since(t));
    cells.push_back(static_cast<double>(report.evaluations));
    result.attempted += report.evaluations;
    for (const auto& row : report.rows) result.failed += row.failed;
    if (report.rows.size() != spec.top) ++result.failed;
    for (int n = 0; n < 2 && !report.rows.empty(); ++n) {
      const auto& row = report.rows[pick.below(report.rows.size())];
      const std::size_t j = pick.below(row.cells.size());
      picked.push_back({row.config, j, row.cells[j]});
    }
    if (k == 0) {
      std::ostringstream out;
      ap::serve::write_sweep_report(out, report);
      first_report.add(out.str());
    }
  }

  // Oracle: a fresh simulator plus predict(ctx).total() must reproduce
  // every picked report cell bit for bit.
  ap::sim::PerfSimulator sim;
  std::uint64_t mismatches = 0;
  for (const Picked& p : picked) {
    const auto& w = ap::workload::workload_by_name(spec.workloads[p.workload]);
    ap::core::EvalContext ctx;
    ctx.cfg = &p.cfg;
    ctx.workload = w.name;
    ctx.program = ap::workload::program_features(w);
    ctx.events = sim.simulate(p.cfg, w);
    const double total = model.predict(ctx).total();
    const double ipc = ctx.events.rate(ap::arch::EventKind::kInstructions);
    if (!p.cell.ok || total != p.cell.total_mw || ipc != p.cell.ipc) {
      ++mismatches;
    }
  }
  result.failed += mismatches;
  Result::note("oracle", std::to_string(picked.size()) +
                             " report cells recomputed, " +
                             std::to_string(mismatches) + " mismatched");
  Result::note("output_digest", "first report " + first_report.hex());
  add_op_metrics(result, cells, seconds,
                 "sweeps of 243 configs x 8 workloads");
  return result;
}

Result run_trace_workload(const Env& env, Prepared& prepared) {
  const auto& model = *prepared.model;
  const auto& profile = ap::workload::workload_by_name(kTraceWorkload);
  const auto program = ap::workload::program_features(profile);

  Result result;
  std::vector<double> windows_per_trace, seconds;
  std::vector<double> first_trace;
  // Oracle windows of the first trace: (context, predicted mW).
  std::vector<std::pair<ap::core::EvalContext, double>> sampled;
  std::uint64_t nondeterministic = 0;
  std::map<std::string, std::uint64_t> config_digests;

  const auto deadline = deadline_after(Clock::now(), env.seconds);
  for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
    const auto& cfg = ap::arch::boom_config(trace_config(env.seed, k));
    const auto t = Clock::now();
    const ap::sim::PerfSimulator sim;
    const auto windows = sim.simulate_trace(cfg, profile);
    std::vector<ap::core::EvalContext> contexts(windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      contexts[i].cfg = &cfg;
      contexts[i].workload = profile.name;
      contexts[i].program = program;
      contexts[i].events = windows[i];
    }
    const std::vector<double> predicted = model.predict_trace(contexts);
    seconds.push_back(seconds_since(t));
    windows_per_trace.push_back(static_cast<double>(predicted.size()));
    result.attempted += predicted.size();

    // The same configuration must give the same trace every time.
    Digest digest;
    for (double p : predicted) digest.add(p);
    const auto [seen, inserted] =
        config_digests.emplace(cfg.name(), digest.value());
    if (!inserted && seen->second != digest.value()) ++nondeterministic;
    if (k == 0) {
      first_trace = predicted;
      SplitMix pick(derive_seed(env.seed, kTagOracle));
      for (int n = 0; n < 64; ++n) {
        const std::size_t i = pick.below(contexts.size());
        sampled.emplace_back(contexts[i], predicted[i]);
      }
    }
  }

  // Oracles: sampled windows against predict(ctx).total(), and the first
  // trace against the golden trace built in set-up.
  std::uint64_t mismatches = 0;
  for (const auto& [ctx, predicted] : sampled) {
    if (model.predict(ctx).total() != predicted) ++mismatches;
  }
  result.failed += mismatches + nondeterministic;
  if (first_trace.size() != prepared.golden_trace.size()) {
    result.failed += first_trace.size();
    Result::note("oracle", "trace length differs from the golden trace");
  } else {
    const auto err =
        ap::exp::trace_errors(prepared.golden_trace, first_trace);
    Result::note("trace_error",
                 "vs golden, first trace: average " +
                     num(err.average_error) + " %, max-power " +
                     num(err.max_power_error) + " %, min-power " +
                     num(err.min_power_error) + " %");
  }
  Result::note("oracle", std::to_string(sampled.size()) +
                             " windows recomputed, " +
                             std::to_string(mismatches) + " mismatched, " +
                             std::to_string(nondeterministic) +
                             " traces differed from an earlier trace of "
                             "their configuration");
  Digest first;
  for (double p : first_trace) first.add(p);
  Result::note("output_digest", "first trace " + first.hex());
  add_op_metrics(result, windows_per_trace, seconds, "gemm traces");
  return result;
}

Result run_serve_workload(const Env& env, Prepared& prepared) {
  DaemonProcess& daemon = *prepared.daemon;
  constexpr std::size_t kConnections = 2;
  std::vector<std::atomic<bool>> claimed(kServeKeys);
  std::vector<ClientLog> logs(kConnections);

  const auto start = Clock::now();
  const auto deadline = deadline_after(start, env.seconds);
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        run_client(daemon.port(), env.seed, c, start, deadline, SIZE_MAX,
                   claimed,
                   /*keep_lines=*/false, logs[c]);
      });
    }
  }
  const double elapsed = seconds_since(start);
  const double daemon_rss = daemon.peak_rss_mib();
  const bool clean_exit = daemon.stop();

  Result result;
  if (!clean_exit) {
    result.correct = false;
    Result::note("daemon", "did not exit cleanly on SIGTERM");
  }
  // Serve requests are short, so the timed region is cut into windows of
  // kWindowS by response time and each metric is the median over the
  // full windows: a burst of interference from outside the benchmark
  // spoils a few windows, not the run.
  constexpr double kWindowS = 0.5;
  const std::size_t n_windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(elapsed / kWindowS));
  std::vector<std::vector<double>> window_us(n_windows);
  std::vector<double> latency_us;
  std::vector<double> cold_us;
  Digest first_lines;
  std::uint64_t mismatches = 0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    const ClientLog& log = logs[c];
    if (!log.error.empty()) {
      ++result.failed;
      Result::note("client", "connection " + std::to_string(c) + ": " +
                                 log.error);
    }
    result.attempted += log.line_hash.size();
    latency_us.insert(latency_us.end(), log.latency_us.begin(),
                      log.latency_us.end());
    for (std::size_t i = 0; i < log.done_s.size(); ++i) {
      const auto w = static_cast<std::size_t>(log.done_s[i] / kWindowS);
      if (w < n_windows) window_us[w].push_back(log.latency_us[i]);
    }
    for (std::uint32_t n : log.cold) {
      if (n < log.latency_us.size()) cold_us.push_back(log.latency_us[n]);
    }
    const std::size_t digested =
        std::min<std::size_t>(1000, log.line_hash.size());
    for (std::size_t i = 0; i < digested; ++i) {
      first_lines.add(std::to_string(log.line_hash[i]));
    }

    // Oracle: a BatchEngine run of this connection's requests must give
    // byte-identical lines.  Chunked to bound memory; `index` is the
    // request's ordinal on its connection.
    autopower::serve::BatchEngine engine(prepared.model, {.threads = 1});
    RequestStream stream(env.seed, c);
    constexpr std::size_t kChunk = 4096;
    std::vector<autopower::serve::BatchRequest> chunk;
    for (std::size_t base = 0; base < log.line_hash.size(); base += kChunk) {
      chunk.clear();
      const std::size_t n = std::min(kChunk, log.line_hash.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        chunk.push_back(serve_key(stream.next()));
      }
      auto responses = engine.run(chunk);
      for (std::size_t i = 0; i < n; ++i) {
        responses[i].index = base + i;
        const std::string line =
            autopower::serve::response_to_jsonl(responses[i]);
        if (digest_of(line) != log.line_hash[base + i]) ++mismatches;
      }
    }
  }
  result.failed += mismatches;
  Result::note("oracle", std::to_string(result.attempted) +
                             " response lines compared with a BatchEngine "
                             "run, " +
                             std::to_string(mismatches) + " mismatched");
  Result::note("output_digest",
               "first 1000 lines per connection " + first_lines.hex());
  Result::note("cold_latency",
               std::to_string(cold_us.size()) +
                   " first requests of a key: p50 " +
                   num(percentile(cold_us, 50)) + " us, p95 " +
                   num(percentile(cold_us, 95)) + " us");
  std::vector<double> rate, p50, tail;
  double smallest_tail = 99.0;
  for (const auto& w : window_us) {
    rate.push_back(static_cast<double>(w.size()) / kWindowS);
    p50.push_back(percentile(w, 50));
    smallest_tail = std::min(smallest_tail, tail_percentile(w.size()));
    tail.push_back(percentile(w, tail_percentile(w.size())));
  }
  result.add("throughput_per_s", median(rate), "1/s");
  result.add("latency_p50_us", median(p50), "us");
  result.add("latency_tail_us", median(tail), "us");
  Result::note("latency",
               std::to_string(latency_us.size()) + " requests timed in " +
                   std::to_string(n_windows) + " windows of " +
                   num(kWindowS) + " s (tail p" + num(smallest_tail) +
                   " or higher per window); over all requests p50 " +
                   num(percentile(latency_us, 50)) + " us, p99 " +
                   num(percentile(latency_us, 99)) + " us");
  result.add("peak_rss_mib", daemon_rss, "MiB");
  return result;
}

}  // namespace perfbench
