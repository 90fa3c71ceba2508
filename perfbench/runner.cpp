// The repository benchmark runner.  perfbench/run.py builds it and runs
//
//   perfbench_runner --workload sweep|trace|serve --seed N --seconds S
//                    --trace 0|1
//
// It records the host and how the workload's inputs were generated from
// the seed, sets up (label simulation, training, archive save and load,
// plus the workload's own part) seven times and reports the median, then
// either measures the workload end to end (--trace 0) or runs the traced
// layer replays (--trace 1).  The last line of standard output is the
// result object; every line before it is an informational note.
//
//   perfbench_runner --list-metrics   metric names and units, as JSON
//   perfbench_runner --self-test      generated-input determinism checks
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "exp/dataset.hpp"
#include "exp/harness.hpp"
#include "exp/trace.hpp"
#include "inputs.hpp"
#include "runner.hpp"
#include "sim/perfsim.hpp"
#include "util/simd.hpp"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; `run.py --self-test` checks that they do.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_tail_us", "us"},
    {"mape_pct", "%"},
    {"r2", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    {"exp.label_sim_ms", "ms"},
    {"core.train_ms", "ms"},
    {"core.archive_load_ms", "ms"},
    {"power.golden_trace_ms", "ms"},
    {"serve.daemon_ready_ms", "ms"},
    {"serve.grid.config_at_us", "us"},
    {"sim.simulate_us", "us"},
    {"util.structural.hit_ratio", "ratio"},
    {"core.predict_total_us", "us"},
    {"core.predict.clock_us", "us"},
    {"core.predict.sram_us", "us"},
    {"core.predict.logic_us", "us"},
    {"core.predict_total_batch_us_per_row", "us"},
    {"serve.sweep.driver_share", "ratio"},
    {"sim.simulate_trace_us_per_window", "us"},
    {"exp.context_build_us_per_window", "us"},
    {"core.predict_trace_us_per_window", "us"},
    {"core.clock.predict_batch_us_per_row", "us"},
    {"core.sram.predict_batch_us_per_row", "us"},
    {"core.logic.predict_batch_us_per_row", "us"},
    {"exp.trace_avg_err_pct", "%"},
    {"serve.jsonl.parse_us", "us"},
    {"serve.engine.warm_us_per_req", "us"},
    {"serve.jsonl.serialize_us", "us"},
    {"serve.engine.cold_us_per_req", "us"},
    {"serve.memo.hit_ratio", "ratio"},
    {"serve.eval_cache.hit_ratio", "ratio"},
    {"serve.wait_us", "us"},
    {"serve.daemon.cold_latency_p50_us", "us"},
    {"serve.daemon.cold_latency_p95_us", "us"},
    {"perfbench.trace_overhead_pct", "%"},
};

constexpr int kSetups = 7;

template <std::size_t N>
std::string spec_json(const MetricSpec (&specs)[N]) {
  std::string out = "[";
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) out += ", ";
    out += std::string("{\"name\": \"") + specs[i].name + "\", \"unit\": \"" +
           specs[i].unit + "\"}";
  }
  return out + "]";
}

/// Orders `result.metrics` as declared; false when the names or units
/// differ from the declaration.
template <std::size_t N>
bool order_metrics(Result& result, const MetricSpec (&specs)[N]) {
  if (result.metrics.size() != N) return false;
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) {
    bool found = false;
    for (const Metric& m : result.metrics) {
      if (m.name == spec.name && m.unit == spec.unit) {
        ordered.push_back(m);
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  result.metrics = std::move(ordered);
  return true;
}

void print_result(const Result& result) {
  std::string out = std::string("{\"correct\": ") +
                    (result.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
}

std::string exe_dir() {
  return std::filesystem::read_symlink("/proc/self/exe")
      .parent_path()
      .string();
}

void note_host() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  namespace simd = ap::util::simd;
  Result::note(
      "host",
      "simd_tier=" + std::string(simd::tier_name(simd::active_tier())) +
          " nproc=" + std::to_string(nproc) + " hardware_concurrency=" +
          std::to_string(std::thread::hardware_concurrency()) +
          " build_type=" PERFBENCH_BUILD_TYPE " compiler=\"" PERFBENCH_COMPILER
          "\" commit=" +
          (commit != nullptr && *commit != '\0' ? commit : "unknown"));
}

/// Digest of the inputs a seed generates for a workload, plus the recipe.
std::pair<std::string, std::string> input_digest(const std::string& workload,
                                                 std::uint64_t seed) {
  Digest digest;
  std::string recipe;
  if (workload == "sweep") {
    for (std::uint64_t k = 0; k < 16; ++k) {
      digest.add(sweep_grid(seed, k).spec);
    }
    recipe = "grid k = perfbench::sweep_grid(seed, k): base C8, 5 axes x 3 "
             "values in Table II ranges, all 8 riscv-tests workloads, 2 "
             "workers, top 16; grid 0 = " +
             sweep_grid(seed, 0).spec;
  } else if (workload == "trace") {
    for (std::uint64_t k = 0; k < 16; ++k) {
      digest.add(trace_config(seed, k));
    }
    recipe = std::string("trace k = ") + kTraceWorkload +
             " on perfbench::trace_config(seed, k) from {C13, C14}; "
             "traces 0-3 = " +
             trace_config(seed, 0) + "," + trace_config(seed, 1) + "," +
             trace_config(seed, 2) + "," + trace_config(seed, 3);
  } else {
    for (std::size_t c = 0; c < 2; ++c) {
      RequestStream stream(seed, c);
      for (int i = 0; i < 4096; ++i) {
        digest.add(std::to_string(stream.next()) + ",");
      }
    }
    recipe = "2 closed-loop connections, stream c = perfbench::"
             "RequestStream(seed, c) over C1-C15 x 8 workloads x {total, "
             "per_component}; daemon engine threads 2";
  }
  return {digest.hex(), recipe};
}

int self_test() {
  bool ok = true;
  for (const std::string w : {"sweep", "trace", "serve"}) {
    const std::string a = input_digest(w, 1).first;
    const std::string b = input_digest(w, 1).first;
    std::vector<std::string> seen;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      seen.push_back(input_digest(w, seed).first);
    }
    std::sort(seen.begin(), seen.end());
    const bool distinct =
        std::adjacent_find(seen.begin(), seen.end()) == seen.end();
    std::cout << "self-test " << w << ": same seed same inputs "
              << (a == b ? "ok" : "FAIL")
              << "; seeds 1-10 give distinct inputs "
              << (distinct ? "ok" : "FAIL") << "\n";
    ok = ok && a == b && distinct;
  }
  return ok ? 0 : 1;
}

double self_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double span_median_ms(const Tracer& tracer, const char* name) {
  return median(tracer.self_samples(name)) / 1e6;
}

}  // namespace

void Result::note(const std::string& name, const std::string& text) {
  std::cout << name << ": " << text << "\n";
}

std::string num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Prepared prepare(const Env& env, Tracer& tracer, bool workload_part) {
  Prepared p;
  const auto start = Clock::now();
  const ap::power::GoldenPowerModel golden;
  std::vector<ap::core::EvalContext> samples;
  {
    Scope span(tracer, "exp.label_sim");
    const ap::sim::PerfSimulator sim;
    for (const auto& name : ap::exp::ExperimentData::training_configs(2)) {
      const auto& cfg = ap::arch::boom_config(name);
      for (const auto& w : ap::workload::riscv_tests_workloads()) {
        ap::core::EvalContext ctx;
        ctx.cfg = &cfg;
        ctx.workload = w.name;
        ctx.program = ap::workload::program_features(w);
        ctx.events = sim.simulate(cfg, w);
        samples.push_back(std::move(ctx));
      }
    }
  }
  {
    ap::core::AutoPowerModel trained;
    {
      Scope span(tracer, "core.train");
      trained.train(samples, golden);
    }
    Scope span(tracer, "core.archive_save");
    trained.save_to_file(env.archive);
  }
  auto loaded = std::make_shared<ap::core::AutoPowerModel>();
  {
    Scope span(tracer, "core.archive_load");
    loaded->load_from_file(env.archive);
  }
  p.model = std::move(loaded);
  if (workload_part && env.workload == "trace") {
    const ap::sim::PerfSimulator sim;
    p.golden_trace =
        ap::exp::build_trace(sim, golden,
                             ap::arch::boom_config(trace_config(env.seed, 0)),
                             ap::workload::workload_by_name(kTraceWorkload))
            .golden_total;
  }
  if (workload_part && env.workload == "serve") {
    p.daemon = std::make_unique<DaemonProcess>(env.cli, env.archive,
                                               env.work_dir + "/daemon.log");
  }
  p.seconds = seconds_since(start);
  return p;
}

namespace {

int run(const Env& env) {
  note_host();
  const auto [digest, recipe] = input_digest(env.workload, env.seed);
  Result::note("input", env.workload + " seed=" + std::to_string(env.seed) +
                            ": " + recipe + "; input_digest=" + digest);

  Tracer tracer(env.trace);
  std::vector<double> setup_s;
  Prepared prepared;
  for (int r = 0; r < kSetups; ++r) {
    Prepared next = prepare(env, tracer, /*workload_part=*/!env.trace);
    setup_s.push_back(next.seconds);
    prepared = std::move(next);
  }

  Result result;
  if (!env.trace) {
    if (env.workload == "sweep") {
      result = run_sweep_workload(env, prepared);
    } else if (env.workload == "trace") {
      result = run_trace_workload(env, prepared);
    } else {
      result = run_serve_workload(env, prepared);
    }
    if (env.workload != "serve") {
      result.add("peak_rss_mib", self_rss_mib(), "MiB");
    }
    result.add("setup_s", median(setup_s), "s");
    std::string each;
    for (double t : setup_s) each += " " + num(t);
    Result::note("setup", std::to_string(kSetups) + " set-ups, median " +
                              num(median(setup_s)) + " s; each (s):" + each);

    // Fig. 4 protocol: the set-up model on every held-out configuration.
    const ap::sim::PerfSimulator sim;
    const ap::power::GoldenPowerModel golden;
    const auto data = ap::exp::ExperimentData::build(sim, golden);
    const auto known = ap::exp::ExperimentData::training_configs(2);
    const auto& model = *prepared.model;
    const auto accuracy = ap::exp::evaluate_predictor(
        data, known, "AutoPower",
        [&model](const ap::core::EvalContext& ctx) {
          return model.predict_total(ctx);
        });
    result.add("mape_pct", accuracy.accuracy.mape, "%");
    result.add("r2", accuracy.accuracy.r2, "ratio");
    if (!order_metrics(result, kEndToEnd)) {
      std::cerr << "perfbench: end-to-end metrics differ from the "
                   "declaration\n";
      return 1;
    }
  } else {
    result.add("exp.label_sim_ms", span_median_ms(tracer, "exp.label_sim"),
               "ms");
    result.add("core.train_ms", span_median_ms(tracer, "core.train"), "ms");
    result.add("core.archive_load_ms",
               span_median_ms(tracer, "core.archive_load"), "ms");
    run_layer_replays(env, prepared, tracer, result);
    const std::string spans =
        env.work_dir + "/spans-" + env.workload + ".jsonl";
    if (!tracer.write(spans)) {
      std::cerr << "perfbench: cannot write " << spans << "\n";
      return 1;
    }
    Result::note("spans", spans);
    if (!order_metrics(result, kPerLayer)) {
      std::cerr << "perfbench: per-layer metrics differ from the "
                   "declaration\n";
      return 1;
    }
  }
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.correct = false;
  }
  if (result.failed > 0 || result.attempted == 0) result.correct = false;
  Result::note("ops", std::to_string(result.attempted) + " attempted, " +
                          std::to_string(result.failed) + " failed");
  print_result(result);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Env env;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--list-metrics") {
        std::cout << "{\"end_to_end\": " << spec_json(kEndToEnd)
                  << ", \"per_layer\": " << spec_json(kPerLayer) << "}\n";
        return 0;
      } else if (arg == "--self-test") {
        return self_test();
      } else if (arg == "--workload") {
        env.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        env.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        env.seconds = std::stod(value());
      } else if (arg == "--trace") {
        env.trace = value() != "0";
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (!have_workload || (env.workload != "sweep" &&
                           env.workload != "trace" &&
                           env.workload != "serve")) {
      throw std::invalid_argument("--workload must be sweep, trace or serve");
    }
    if (!(env.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
    env.work_dir = exe_dir() + "/work";
    env.cli = exe_dir() + "/autopower";
    env.archive = env.work_dir + "/model-" + std::to_string(getpid()) + ".ap";
    std::filesystem::create_directories(env.work_dir);
    const int status = run(env);
    std::filesystem::remove(env.archive);
    return status;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove(env.archive, ignored);
    return 1;
  }
}
