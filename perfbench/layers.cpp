// Traced layer replays.  Each replay drives one workload's pipeline
// through the public calls of every module on its path, with a span
// around each call, on the inputs the seed generates for that workload.
// Every traced run performs all three replays, so every run prints every
// per-layer metric; the end-to-end metric each one moves is named in
// perfbench/README.md.
//
// Span ids: the top 16 bits name the replay, the rest the cell, window
// or request, so the spans of one cell, window or request share an id.
// Tracing overhead is measured where spans are densest: the sweep cell
// walk and the wire parse/serialize replays run each piece of work once
// untraced and once traced, alternating which goes first.
#include <cmath>

#include "daemon.hpp"
#include "exp/trace.hpp"
#include "inputs.hpp"
#include "runner.hpp"
#include "serve/daemon.hpp"
#include "serve/jsonl.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kIdSweep = 1ull << 48;
constexpr std::uint64_t kIdTrace = 2ull << 48;
constexpr std::uint64_t kIdServe = 3ull << 48;

struct Overhead {
  double untraced_s = 0.0;
  double traced_s = 0.0;

  /// Times `work(tracer)` once untraced and once traced, in the order
  /// `traced_first` picks.
  template <typename Work>
  void measure(Tracer& tracer, bool traced_first, Work&& work) {
    Tracer off(false);
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == traced_first;
      const auto start = Clock::now();
      work(traced ? tracer : off);
      (traced ? traced_s : untraced_s) += seconds_since(start);
    }
  }
};

double self_us_mean(const Tracer& tracer, const char* name) {
  return mean(tracer.self_samples(name)) / 1e3;
}

double self_us_median(const Tracer& tracer, const char* name) {
  return median(tracer.self_samples(name)) / 1e3;
}

double self_us_total(const Tracer& tracer, const char* name) {
  double total = 0.0;
  for (double ns : tracer.self_samples(name)) total += ns;
  return total / 1e3;
}

std::string ratio_note(std::uint64_t hits, std::uint64_t misses) {
  return std::to_string(hits) + " hits of " + std::to_string(hits + misses) +
         " lookups";
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

/// Sweep: grid 0 of the seed.  One run_sweep on one worker is the
/// reference, then the same cells are walked serially until the budget
/// is spent.
void replay_sweep(const Env& env, const Prepared& prepared, double budget_s,
                  Tracer& tracer, Result& result, Overhead& overhead) {
  const auto start = Clock::now();
  const auto& model = *prepared.model;
  const SweepGrid grid = sweep_grid(env.seed, 0);
  const ap::serve::GridCursor cursor(ap::arch::boom_config("C8"), grid.axes);
  const std::vector<std::string> names = evaluation_workloads();
  std::vector<const ap::workload::WorkloadProfile*> profiles;
  std::vector<ap::workload::ProgramFeatures> programs;
  for (const auto& name : names) {
    profiles.push_back(&ap::workload::workload_by_name(name));
    programs.push_back(ap::workload::program_features(*profiles.back()));
  }

  ap::serve::SweepSpec spec;
  spec.base = "C8";
  spec.axes = grid.axes;
  spec.workloads = names;
  spec.threads = 1;
  ap::serve::SweepReport report;
  const auto sweep_start = Clock::now();
  {
    Scope span(tracer, "serve.sweep.run", kIdSweep);
    report = ap::serve::run_sweep(model, spec);
  }
  double sweep_s = seconds_since(sweep_start);
  std::vector<const ap::serve::SweepRow*> row_of(cursor.size(), nullptr);
  for (const auto& row : report.rows) row_of[row.index] = &row;

  // Pipeline walk: the calls run_sweep makes per cell, serially over the
  // same cells, chunk by chunk until the budget is spent.
  const std::size_t cells = cursor.size() * names.size();
  ap::sim::PerfSimulator sim(ap::sim::SimOptions{},
                             std::make_shared<ap::util::StructuralSimCache>());
  std::vector<ap::arch::HardwareConfig> configs(cursor.size());
  std::vector<ap::core::EvalContext> contexts(cells);
  std::vector<double> totals(cells);
  std::uint64_t mismatches = 0;
  const auto pipeline = [&](std::size_t begin, std::size_t end, Tracer& t) {
    for (std::size_t cell = begin; cell < end; ++cell) {
      const std::size_t n = cell / names.size();
      const std::size_t j = cell % names.size();
      const std::uint64_t id = kIdSweep | cell;
      Scope cell_span(t, "sweep.cell", id);
      {
        Scope span(t, "serve.grid.config_at", id);
        configs[n] = cursor.config_at(n);
      }
      ap::core::EvalContext& ctx = contexts[cell];
      ctx.cfg = &configs[n];
      ctx.workload = names[j];
      ctx.program = programs[j];
      {
        Scope span(t, "sim.simulate", id);
        ctx.events = sim.simulate(*ctx.cfg, *profiles[j]);
      }
      Scope span(t, "core.predict_total", id);
      totals[cell] = model.predict_total(ctx);
    }
  };
  constexpr std::size_t kChunk = 64;
  std::size_t walked = 0;
  const double untraced_before = overhead.untraced_s;
  while (walked < cells && (walked == 0 || seconds_since(start) < budget_s)) {
    const std::size_t end = std::min(walked + kChunk, cells);
    overhead.measure(tracer, (walked / kChunk) % 2 == 1,
                     [&](Tracer& t) { pipeline(walked, end, t); });
    walked = end;
  }
  const double walk_s = overhead.untraced_s - untraced_before;
  // The reference sweep runs again after the walk and the faster run is
  // kept: host interference only ever adds time.
  {
    const auto again_start = Clock::now();
    Scope span(tracer, "serve.sweep.run", kIdSweep);
    (void)ap::serve::run_sweep(model, spec);
    sweep_s = std::min(sweep_s, seconds_since(again_start));
  }

  // Probes on the walked cells: each power group's 22-component predict
  // at batch 1, and predict_total_batch in batches of 64.
  for (std::size_t cell = 0; cell < walked; ++cell) {
    const std::size_t n = cell / names.size();
    const std::size_t j = cell % names.size();
    const std::uint64_t id = kIdSweep | cell;
    const ap::core::EvalContext& ctx = contexts[cell];
    double clock = 0.0, sram = 0.0, logic = 0.0;
    {
      Scope span(tracer, "core.predict.clock", id);
      for (auto c : ap::arch::all_components()) {
        clock += model.clock_model(c).predict(ctx);
      }
    }
    {
      Scope span(tracer, "core.predict.sram", id);
      for (auto c : ap::arch::all_components()) {
        sram += model.sram_model(c).predict(ctx);
      }
    }
    {
      Scope span(tracer, "core.predict.logic", id);
      for (auto c : ap::arch::all_components()) {
        logic += model.logic_model(c).predict(ctx);
      }
    }
    // The report cell must match bit for bit; the three group sums must
    // add up to the total up to summation order.
    if (row_of[n] == nullptr || totals[cell] != row_of[n]->cells[j].total_mw ||
        std::abs(clock + sram + logic - totals[cell]) > 1e-9 * totals[cell]) {
      ++mismatches;
    }
  }
  for (std::size_t begin = 0; begin < walked; begin += kChunk) {
    const std::size_t rows = std::min(kChunk, walked - begin);
    std::vector<double> batch;
    {
      Scope span(tracer, "core.predict_total_batch", kIdSweep | begin);
      batch = model.predict_total_batch({contexts.data() + begin, rows});
    }
    for (std::size_t i = 0; i < rows; ++i) {
      if (batch[i] != totals[begin + i]) ++mismatches;
    }
  }
  result.attempted += walked;
  result.failed += mismatches;

  const double config_at = self_us_mean(tracer, "serve.grid.config_at");
  const double simulate = self_us_mean(tracer, "sim.simulate");
  const double predict = self_us_mean(tracer, "core.predict_total");
  const double per_cell = config_at + simulate + predict;
  result.add("serve.grid.config_at_us", config_at, "us");
  result.add("sim.simulate_us", simulate, "us");
  const auto structural = report.structural;
  result.add("util.structural.hit_ratio",
             hit_ratio(structural.hits, structural.misses), "ratio");
  result.add("core.predict_total_us", predict, "us");
  for (const char* group : {"clock", "sram", "logic"}) {
    const std::string span = std::string("core.predict.") + group;
    result.add(span + "_us", self_us_mean(tracer, span.c_str()), "us");
  }
  result.add("core.predict_total_batch_us_per_row",
             self_us_total(tracer, "core.predict_total_batch") /
                 static_cast<double>(walked),
             "us");
  // run_sweep's time beyond the untraced serial per-cell calls: fan-out,
  // heaps and report formatting.
  result.add("serve.sweep.driver_share",
             1.0 - walk_s * static_cast<double>(cells) /
                       static_cast<double>(walked) / sweep_s,
             "ratio");

  Result::note("layers.sweep",
               "grid " + grid.spec + "; run_sweep on 1 worker " +
                   num(sweep_s) + " s for " + std::to_string(cells) +
                   " cells; walked " + std::to_string(walked) +
                   " cells; predict_total is " + num(predict / per_cell) +
                   " of per-cell time; structural " +
                   ratio_note(structural.hits, structural.misses) + "; " +
                   std::to_string(mismatches) + " oracle mismatches");
}

/// Trace: trace 0 of the seed, built once with golden power and once
/// through the prediction pipeline.
void replay_trace(const Env& env, const Prepared& prepared, Tracer& tracer,
                  Result& result) {
  const auto& model = *prepared.model;
  const auto& cfg = ap::arch::boom_config(trace_config(env.seed, 0));
  const auto& profile = ap::workload::workload_by_name(kTraceWorkload);
  const auto program = ap::workload::program_features(profile);

  std::vector<double> golden_total;
  {
    Scope span(tracer, "power.golden_trace", kIdTrace);
    const ap::power::GoldenPowerModel golden;
    const ap::sim::PerfSimulator sim;
    golden_total = ap::exp::build_trace(sim, golden, cfg, profile).golden_total;
  }

  std::vector<ap::arch::EventVector> windows;
  std::vector<ap::core::EvalContext> contexts;
  std::vector<double> predicted;
  {
    Scope op(tracer, "trace.op", kIdTrace);
    const ap::sim::PerfSimulator sim;
    {
      Scope span(tracer, "sim.simulate_trace", kIdTrace);
      windows = sim.simulate_trace(cfg, profile);
    }
    {
      Scope span(tracer, "exp.context_build", kIdTrace);
      contexts.resize(windows.size());
      for (std::size_t i = 0; i < windows.size(); ++i) {
        contexts[i].cfg = &cfg;
        contexts[i].workload = profile.name;
        contexts[i].program = program;
        contexts[i].events = windows[i];
      }
    }
    {
      Scope span(tracer, "core.predict_trace", kIdTrace);
      predicted = model.predict_trace(contexts);
    }
  }
  const double n_windows = static_cast<double>(contexts.size());

  // Per-group batched predict over a seeded slice of the windows.
  SplitMix pick(derive_seed(env.seed, kTagOracle, 1));
  const std::size_t rows = std::min<std::size_t>(4096, contexts.size());
  const std::span<const ap::core::EvalContext> slice(
      contexts.data() + pick.below(contexts.size() - rows + 1), rows);
  {
    Scope span(tracer, "core.clock.predict_batch", kIdTrace);
    for (auto c : ap::arch::all_components()) {
      (void)model.clock_model(c).predict_batch(slice);
    }
  }
  {
    Scope span(tracer, "core.sram.predict_batch", kIdTrace);
    for (auto c : ap::arch::all_components()) {
      (void)model.sram_model(c).predict_batch(slice);
    }
  }
  {
    Scope span(tracer, "core.logic.predict_batch", kIdTrace);
    std::vector<double> reg(rows), comb(rows);
    for (auto c : ap::arch::all_components()) {
      model.logic_model(c).predict_batch(slice, reg, comb);
    }
  }

  std::uint64_t mismatches = 0;
  for (int n = 0; n < 64; ++n) {
    const std::size_t i = pick.below(contexts.size());
    Scope span(tracer, "core.predict", kIdTrace | i);
    if (model.predict(contexts[i]).total() != predicted[i]) ++mismatches;
  }
  result.attempted += predicted.size();
  result.failed += mismatches;
  double avg_err = 0.0;
  if (golden_total.size() == predicted.size()) {
    avg_err = ap::exp::trace_errors(golden_total, predicted).average_error;
  } else {
    result.failed += predicted.size();
  }

  result.add("sim.simulate_trace_us_per_window",
             self_us_total(tracer, "sim.simulate_trace") / n_windows, "us");
  result.add("exp.context_build_us_per_window",
             self_us_total(tracer, "exp.context_build") / n_windows, "us");
  result.add("core.predict_trace_us_per_window",
             self_us_total(tracer, "core.predict_trace") / n_windows, "us");
  const double batch_rows = static_cast<double>(rows);
  result.add("core.clock.predict_batch_us_per_row",
             self_us_total(tracer, "core.clock.predict_batch") / batch_rows,
             "us");
  result.add("core.sram.predict_batch_us_per_row",
             self_us_total(tracer, "core.sram.predict_batch") / batch_rows,
             "us");
  result.add("core.logic.predict_batch_us_per_row",
             self_us_total(tracer, "core.logic.predict_batch") / batch_rows,
             "us");
  result.add("exp.trace_avg_err_pct", avg_err, "%");
  result.add("power.golden_trace_ms",
             self_us_total(tracer, "power.golden_trace") / 1e3, "ms");

  const double op_us = self_us_total(tracer, "sim.simulate_trace") +
                       self_us_total(tracer, "exp.context_build") +
                       self_us_total(tracer, "core.predict_trace");
  Result::note("layers.trace",
               "gemm on " + cfg.name() + ", " +
                   std::to_string(contexts.size()) +
                   " windows; predict_trace is " +
                   num(self_us_total(tracer, "core.predict_trace") / op_us) +
                   " of the trace; " + std::to_string(mismatches) +
                   " oracle mismatches in 64 windows");
}

/// Serve: the first requests of connection 0's stream, replayed through
/// the wire parser, a fresh engine and the serializer in-process, then
/// sent to a fresh daemon from one closed-loop connection.
void replay_serve(const Env& env, const Prepared& prepared, Tracer& tracer,
                  Result& result, Overhead& overhead) {
  constexpr std::size_t kRequests = 8192;
  RequestStream stream(env.seed, 0);
  std::vector<std::size_t> keys(kRequests);
  std::vector<std::string> lines(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    keys[i] = stream.next();
    lines[i] = request_line(serve_key(keys[i]));
  }

  std::uint64_t mismatches = 0;
  overhead.measure(tracer, false, [&](Tracer& t) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      Scope span(t, "serve.jsonl.parse", kIdServe | i);
      const auto parsed = ap::serve::daemon_request_from_jsonl(lines[i]);
      if (parsed.request.config != serve_key(keys[i]).config) ++mismatches;
    }
  });

  // One request per run() call: how a closed-loop client's requests
  // reach the engine.  A key's first request is the cold path.
  ap::serve::BatchEngine engine(prepared.model, {.threads = 2});
  std::vector<bool> seen(kServeKeys, false);
  std::vector<ap::serve::BatchResponse> responses;
  responses.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const ap::serve::BatchRequest request = serve_key(keys[i]);
    const char* name =
        seen[keys[i]] ? "serve.engine.warm" : "serve.engine.cold";
    seen[keys[i]] = true;
    Scope span(tracer, name, kIdServe | i);
    responses.push_back(std::move(engine.run({&request, 1}).front()));
    responses.back().index = i;
  }
  const auto memo = engine.response_stats();
  const auto eval_cache = engine.cache().stats();

  std::vector<std::string> expected(kRequests);
  overhead.measure(tracer, true, [&](Tracer& t) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      Scope span(t, "serve.jsonl.serialize", kIdServe | i);
      expected[i] = ap::serve::response_to_jsonl(responses[i]);
    }
  });

  std::vector<std::atomic<bool>> claimed(kServeKeys);
  ClientLog log;
  double ready_ms = 0.0;
  {
    std::unique_ptr<DaemonProcess> daemon;
    {
      Scope span(tracer, "serve.daemon_ready", kIdServe);
      daemon = std::make_unique<DaemonProcess>(env.cli, env.archive,
                                               env.work_dir + "/daemon.log");
    }
    ready_ms = daemon->ready_ms();
    const auto now = Clock::now();
    run_client(daemon->port(), env.seed, 0, now,
               now + std::chrono::seconds(60), kRequests, claimed,
               /*keep_lines=*/true, log);
    if (!daemon->stop()) ++result.failed;
  }
  if (log.lines.size() != kRequests) {
    result.failed += kRequests - log.lines.size();
  }
  for (std::size_t i = 0; i < log.lines.size(); ++i) {
    if (log.lines[i] != expected[i]) ++mismatches;
  }
  result.attempted += 2 * kRequests;
  result.failed += mismatches;

  const std::vector<double> client_us(log.latency_us.begin(),
                                      log.latency_us.end());
  std::vector<double> cold_us;
  for (std::uint32_t n : log.cold) {
    if (n < client_us.size()) cold_us.push_back(client_us[n]);
  }
  const double parse = self_us_median(tracer, "serve.jsonl.parse");
  const double warm = self_us_median(tracer, "serve.engine.warm");
  const double serialize = self_us_median(tracer, "serve.jsonl.serialize");
  result.add("serve.jsonl.parse_us", self_us_mean(tracer, "serve.jsonl.parse"),
             "us");
  result.add("serve.engine.warm_us_per_req",
             self_us_mean(tracer, "serve.engine.warm"), "us");
  result.add("serve.jsonl.serialize_us",
             self_us_mean(tracer, "serve.jsonl.serialize"), "us");
  result.add("serve.engine.cold_us_per_req",
             self_us_mean(tracer, "serve.engine.cold"), "us");
  result.add("serve.memo.hit_ratio", hit_ratio(memo.hits, memo.misses),
             "ratio");
  result.add("serve.eval_cache.hit_ratio",
             hit_ratio(eval_cache.hits, eval_cache.misses), "ratio");
  result.add("serve.wait_us",
             median(client_us) - (parse + warm + serialize), "us");
  result.add("serve.daemon_ready_ms", ready_ms, "ms");
  result.add("serve.daemon.cold_latency_p50_us", percentile(cold_us, 50),
             "us");
  result.add("serve.daemon.cold_latency_p95_us", percentile(cold_us, 95),
             "us");

  Result::note("layers.serve",
               std::to_string(kRequests) + " requests; memo " +
                   ratio_note(memo.hits, memo.misses) + "; eval cache " +
                   ratio_note(eval_cache.hits, eval_cache.misses) +
                   "; daemon client p50 " + num(median(client_us)) +
                   " us over " + std::to_string(client_us.size()) +
                   " requests, " + std::to_string(cold_us.size()) +
                   " cold; " + std::to_string(mismatches) +
                   " oracle mismatches");
}

}  // namespace

void run_layer_replays(const Env& env, const Prepared& prepared,
                       Tracer& tracer, Result& result) {
  const auto start = Clock::now();
  Overhead overhead;
  replay_trace(env, prepared, tracer, result);
  replay_serve(env, prepared, tracer, result, overhead);
  replay_sweep(env, prepared, std::max(1.0, env.seconds - seconds_since(start)),
               tracer, result, overhead);
  result.add("perfbench.trace_overhead_pct",
             100.0 * (overhead.traced_s - overhead.untraced_s) /
                 overhead.untraced_s,
             "%");
  Result::note("tracing", std::to_string(tracer.size()) +
                              " spans; overhead measured on " +
                              num(overhead.untraced_s) +
                              " s of untraced work");
}

}  // namespace perfbench
