// autopower — command-line interface to the AutoPower library.
//
// Subcommands:
//   list                                  show configurations and workloads
//   train    --known C1,C15 --out m.ap    train and persist a model
//            [--threads N]                parallel sub-model fitting
//   predict  --model m.ap --config C8 --workload dhrystone [--per-component]
//   evaluate --model m.ap --known C1,C15 [--threads N]
//   trace    --model m.ap --config C3 --workload gemm [--csv out.csv]
//   batch    --model m.ap --requests reqs.jsonl [--out results.jsonl]
//            [--threads N]                concurrent JSONL batch inference
//   sweep    --model m.ap --grid "RobEntry=64,96;FetchWidth=4,8"
//            --workloads dhrystone,qsort [--base C8] [--rank ipc_per_watt]
//            [--top K] [--out sweep.jsonl] [--threads N] [--progress]
//            [--checkpoint sweep.ckpt] [--resume] [--memory-budget 64M]
//                                          streaming parallel design-space
//                                          sweep with a ranked JSONL report,
//                                          crash-safe checkpoint/resume and
//                                          a bounded structural-cache budget
//   serve    --model [name=]m.ap [--model other=o.ap ...] --port 9410
//            [--queue-depth N] [--max-connections N] [--max-batch N]
//            [--threads N]                 resident JSONL-over-TCP daemon;
//                                          --model is repeatable (a model
//                                          zoo; the first one is the
//                                          default route, requests pick one
//                                          with "model": "name"); SIGHUP or
//                                          {"cmd": "reload"} hot-swap the
//                                          archives without a restart;
//                                          SIGINT/SIGTERM drain gracefully
//
// Observability: `--stats <path>` (train, evaluate, batch, sweep) writes
// one JSON snapshot of the process-wide util::MetricsRegistry after the
// command finishes — request latency, queue wait, cache hit rates,
// per-sub-model fit timings, structural-memo lane counters (field
// glossary in README "Observability").  `sweep --progress` additionally
// prints a periodic cells-done line to stderr while the sweep runs.
//
// The CLI drives exactly the same public API the examples use; a model
// trained here can be reloaded by any program linking the library.

#include <csignal>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/autopower.hpp"
#include "exp/harness.hpp"
#include "exp/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/jsonl.hpp"
#include "explore/explore.hpp"
#include "serve/registry.hpp"
#include "serve/sweep.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace autopower;

namespace {

using ArgMap = std::map<std::string, std::string>;

/// Which flags a subcommand accepts: valued flags consume the next token,
/// boolean flags take none, repeatable flags are valued flags that may be
/// given more than once (occurrences joined with '\x1f' in the ArgMap —
/// the same cannot-appear-in-a-value separator the serving memo keys use;
/// split them back with split_multi_flag).
struct FlagSpec {
  std::set<std::string> valued;
  std::set<std::string> boolean;
  std::set<std::string> repeatable;
};

ArgMap parse_flags(int argc, char** argv, int first, const FlagSpec& spec) {
  ArgMap flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw util::InvalidArgument("expected a --flag, got: " + key);
    }
    key = key.substr(2);
    const bool is_repeatable = spec.repeatable.count(key) > 0;
    const bool is_valued = is_repeatable || spec.valued.count(key) > 0;
    if (!is_valued && spec.boolean.count(key) == 0) {
      throw util::InvalidArgument("unknown flag --" + key);
    }
    AP_REQUIRE(is_repeatable || flags.count(key) == 0,
               "duplicate flag --" + key);
    if (is_valued) {
      AP_REQUIRE(i + 1 < argc, "flag --" + key + " needs a value");
      const std::string value = argv[++i];
      AP_REQUIRE(value.find('\x1f') == std::string::npos,
                 "flag --" + key + " value contains a control character");
      const auto it = flags.find(key);
      if (it == flags.end()) {
        flags[key] = value;
      } else {
        it->second += '\x1f';
        it->second += value;
      }
    } else {
      flags.emplace(key, "1");  // a boolean flag is never repeated
    }
  }
  return flags;
}

/// Splits a repeatable flag's joined ArgMap entry back into the values
/// given on the command line, in order.
std::vector<std::string> split_multi_flag(const std::string& joined) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t sep = joined.find('\x1f', start);
    if (sep == std::string::npos) {
      out.push_back(joined.substr(start));
      return out;
    }
    out.push_back(joined.substr(start, sep - start));
    start = sep + 1;
  }
}

/// Every integer flag routes through util::parse_int (full-consume
/// std::from_chars): trailing garbage ("--threads 4x"), overflow, leading
/// '+' and whitespace are all rejected instead of silently truncated.
int parse_int_flag(const ArgMap& flags, const std::string& key, int fallback,
                   int min) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  return util::parse_int(it->second, "--" + key, min);
}

int parse_threads(const ArgMap& flags) {
  return parse_int_flag(flags, "threads", 1, 1);
}

/// --stats <path>: one JSON snapshot of the process-wide registry,
/// written after the command's work (and any export_metrics calls) is
/// done.  The write itself is checked like any other report stream.
void write_stats_snapshot(const ArgMap& flags) {
  const auto it = flags.find("stats");
  if (it == flags.end()) return;
  std::ofstream out(it->second);
  AP_REQUIRE(out.good(), "cannot open stats file: " + it->second);
  out << util::MetricsRegistry::global().to_json() << '\n';
  util::flush_and_check(out, "stats snapshot " + it->second);
  std::cerr << "metrics snapshot written to " << it->second << "\n";
}

std::string require_flag(const ArgMap& flags, const std::string& key) {
  const auto it = flags.find(key);
  AP_REQUIRE(it != flags.end(), "missing required flag --" + key);
  return it->second;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  AP_REQUIRE(!out.empty(), "empty list");
  return out;
}

core::EvalContext make_context(const sim::PerfSimulator& simulator,
                               const std::string& config,
                               const std::string& wl) {
  core::EvalContext ctx;
  ctx.cfg = &arch::boom_config(config);
  ctx.workload = wl;
  const auto& profile = workload::workload_by_name(wl);
  ctx.program = workload::program_features(profile);
  ctx.events = simulator.simulate(*ctx.cfg, profile);
  return ctx;
}

int cmd_list() {
  std::cout << "Configurations (paper Table II):\n";
  util::TablePrinter table({"Config", "FetchWidth", "DecodeWidth",
                            "RobEntry", "IntIssueWidth", "CacheWay"});
  for (const auto& cfg : arch::boom_design_space()) {
    table.add_row({cfg.name(),
                   std::to_string(cfg.value(arch::HwParam::kFetchWidth)),
                   std::to_string(cfg.value(arch::HwParam::kDecodeWidth)),
                   std::to_string(cfg.value(arch::HwParam::kRobEntry)),
                   std::to_string(cfg.value(arch::HwParam::kIntIssueWidth)),
                   std::to_string(cfg.value(arch::HwParam::kCacheWay))});
  }
  table.print(std::cout);
  std::cout << "\nWorkloads: ";
  for (const auto& w : workload::riscv_tests_workloads()) {
    std::cout << w.name << ' ';
  }
  std::cout << "(evaluation), ";
  for (const auto& w : workload::trace_workloads()) {
    std::cout << w.name << ' ';
  }
  std::cout << "(power traces)\n";
  return 0;
}

int cmd_train(const ArgMap& flags) {
  const auto known = split_csv(require_flag(flags, "known"));
  const auto out_path = require_flag(flags, "out");

  sim::PerfSimulator simulator;
  power::GoldenPowerModel golden;
  const auto data = exp::ExperimentData::build(simulator, golden);

  core::AutoPowerModel model;
  model.train(data.contexts_of(known), golden,
              static_cast<std::size_t>(parse_threads(flags)));
  model.save_to_file(out_path);
  std::cout << "Trained on " << known.size()
            << " configurations; model written to " << out_path << "\n";
  simulator.structural_cache()->export_metrics(
      util::MetricsRegistry::global());
  write_stats_snapshot(flags);
  return 0;
}

int cmd_predict(const ArgMap& flags) {
  core::AutoPowerModel model;
  model.load_from_file(require_flag(flags, "model"));
  const auto config = require_flag(flags, "config");
  const auto wl = require_flag(flags, "workload");

  sim::PerfSimulator simulator;
  const auto ctx = make_context(simulator, config, wl);
  const auto result = model.predict(ctx);

  if (flags.count("per-component") > 0) {
    util::TablePrinter table(
        {"Component", "Clock (mW)", "SRAM (mW)", "Logic (mW)", "Total"});
    for (const auto& cp : result.components) {
      table.add_row({std::string(arch::component_name(cp.component)),
                     util::fmt(cp.groups.clock), util::fmt(cp.groups.sram),
                     util::fmt(cp.groups.logic()),
                     util::fmt(cp.groups.total())});
    }
    table.print(std::cout);
  }
  const auto totals = result.totals();
  std::cout << config << "/" << wl << ": total " << util::fmt(totals.total())
            << " mW (clock " << util::fmt(totals.clock) << ", sram "
            << util::fmt(totals.sram) << ", logic "
            << util::fmt(totals.logic()) << ")\n";
  return 0;
}

int cmd_evaluate(const ArgMap& flags) {
  core::AutoPowerModel model;
  model.load_from_file(require_flag(flags, "model"));
  const auto known = split_csv(require_flag(flags, "known"));
  const int threads = parse_threads(flags);

  sim::PerfSimulator simulator;
  power::GoldenPowerModel golden;
  const auto data = exp::ExperimentData::build(simulator, golden);

  // Predict over the held-out grid: predict* const methods are safe for
  // concurrent use, so every index shares the model directly.
  const auto held_out = data.samples_excluding(known);
  std::vector<double> actual(held_out.size());
  std::vector<double> predicted(held_out.size());
  util::parallel_for(held_out.size(), static_cast<std::size_t>(threads),
                     [&](std::size_t i) {
                       actual[i] = held_out[i]->golden.total();
                       predicted[i] = model.predict_total(held_out[i]->ctx);
                     });
  std::cout << "Held-out accuracy (excluding ";
  for (const auto& k : known) std::cout << k << ' ';
  std::cout << "): " << exp::compute_accuracy(actual, predicted).to_string()
            << "\n";
  simulator.structural_cache()->export_metrics(
      util::MetricsRegistry::global());
  write_stats_snapshot(flags);
  return 0;
}

int cmd_batch(const ArgMap& flags) {
  const auto model_path = require_flag(flags, "model");
  const auto requests_path = require_flag(flags, "requests");
  std::size_t threads = static_cast<std::size_t>(parse_threads(flags));
  if (flags.count("threads") == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  std::vector<serve::BatchRequest> requests;
  {
    std::ifstream in(requests_path);
    AP_REQUIRE(in.good(), "cannot open requests file: " + requests_path);
    requests = serve::read_requests(in);
  }
  AP_REQUIRE(!requests.empty(), "no requests in " + requests_path);

  serve::ModelRegistry registry;
  serve::BatchEngine engine(registry.get(model_path), {.threads = threads});
  const auto responses = engine.run(requests);

  if (const auto it = flags.find("out"); it != flags.end()) {
    std::ofstream out(it->second);
    AP_REQUIRE(out.good(), "cannot open output file: " + it->second);
    serve::write_responses(out, responses);
    // A full disk or closed pipe can swallow buffered writes without any
    // operator<< reporting it; re-check after the final flush so a
    // truncated report exits non-zero instead of silently "succeeding".
    util::flush_and_check(out, "batch report " + it->second);
    std::size_t failed = 0;
    for (const auto& r : responses) {
      if (!r.ok) ++failed;
    }
    const auto stats = engine.cache().stats();
    std::cerr << responses.size() << " responses written to " << it->second
              << " (" << failed << " failed; " << threads << " threads, "
              << stats.hits << " cache hits / " << stats.misses
              << " misses)\n";
  } else {
    serve::write_responses(std::cout, responses);
    util::flush_and_check(std::cout, "batch report (stdout)");
  }
  write_stats_snapshot(flags);
  return 0;
}

int cmd_sweep(const ArgMap& flags) {
  core::AutoPowerModel model;
  model.load_from_file(require_flag(flags, "model"));

  serve::SweepSpec spec;
  if (const auto it = flags.find("base"); it != flags.end()) {
    spec.base = it->second;
  }
  spec.axes = serve::parse_grid(require_flag(flags, "grid"));
  spec.workloads = split_csv(require_flag(flags, "workloads"));
  spec.threads = static_cast<std::size_t>(parse_threads(flags));
  if (flags.count("threads") == 0) {
    spec.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (const auto it = flags.find("rank"); it != flags.end()) {
    spec.metric = serve::sweep_metric_from_string(it->second);
  }
  spec.top = static_cast<std::size_t>(parse_int_flag(flags, "top", 0, 1));
  if (const auto it = flags.find("checkpoint"); it != flags.end()) {
    spec.checkpoint = it->second;
  }
  spec.resume = flags.count("resume") > 0;
  AP_REQUIRE(!spec.resume || !spec.checkpoint.empty(),
             "--resume needs --checkpoint");
  if (const auto it = flags.find("memory-budget"); it != flags.end()) {
    spec.memory_budget =
        util::parse_size_bytes(it->second, "--memory-budget");
  }

  // --progress: a monitor thread polls the process-wide sweep-cells
  // counter and reports to stderr while the workers run.  The expected
  // cell count is the grid size times the workload count.
  std::size_t expected_cells = spec.workloads.size();
  for (const auto& axis : spec.axes) expected_cells *= axis.values.size();
  std::atomic<bool> sweep_done{false};
  std::thread monitor;
  if (flags.count("progress") > 0) {
    auto& cells = util::MetricsRegistry::global().counter(
        "serve.sweep.cells");
    const auto start_cells = cells.value();
    monitor = std::thread([&sweep_done, &cells, start_cells,
                           expected_cells] {
      int ticks = 0;
      while (!sweep_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (++ticks % 10 != 0) continue;  // report every ~1 s
        std::cerr << "sweep progress: " << (cells.value() - start_cells)
                  << "/" << expected_cells << " cells\n";
      }
    });
  }

  serve::SweepReport report;
  try {
    report = serve::run_sweep(model, spec);
  } catch (...) {
    sweep_done.store(true, std::memory_order_relaxed);
    if (monitor.joinable()) monitor.join();
    throw;
  }
  sweep_done.store(true, std::memory_order_relaxed);
  if (monitor.joinable()) monitor.join();

  std::ostream* out = &std::cout;
  std::ofstream file;
  if (const auto it = flags.find("out"); it != flags.end()) {
    file.open(it->second);
    AP_REQUIRE(file.good(), "cannot open output file: " + it->second);
    out = &file;
  }
  serve::write_sweep_report(*out, report);
  // Catch silently-truncated reports (full disk, closed pipe) and exit
  // non-zero; operator<< alone never reports buffered-write failures.
  util::flush_and_check(*out, out == &file
                                  ? "sweep report " + flags.at("out")
                                  : "sweep report (stdout)");

  std::size_t failed = 0;
  for (const auto& row : report.rows) failed += row.failed;
  std::cerr << report.configs << " configurations x " << spec.workloads.size()
            << " workloads = " << report.evaluations << " evaluations ("
            << failed << " failed; " << spec.threads
            << " threads; ranked by " << serve::to_string(spec.metric)
            << "; structural memo " << report.structural.hits << "/"
            << report.structural.misses << " hit/miss)\n";
  if (report.resumed > 0) {
    std::cerr << "resumed " << report.resumed << "/" << report.configs
              << " configurations from checkpoint " << spec.checkpoint
              << "\n";
  }
  // A row whose every cell failed has no means to rank by; it is never
  // the best.
  const auto best = std::find_if(
      report.rows.begin(), report.rows.end(),
      [](const serve::SweepRow& row) { return row.failed < row.cells.size(); });
  if (best != report.rows.end()) {
    std::cerr << "best: " << best->config.name() << " ("
              << util::fmt(best->mean_total_mw) << " mW, IPC "
              << util::fmt(best->mean_ipc) << ", "
              << util::fmt(best->ipc_per_watt) << " IPC/W)\n";
  } else if (!report.rows.empty()) {
    std::cerr << "best: none (every cell failed)\n";
  }
  write_stats_snapshot(flags);
  return 0;
}

int cmd_explore(const ArgMap& flags) {
  core::AutoPowerModel model;
  model.load_from_file(require_flag(flags, "model"));

  explore::ExploreSpec spec;
  if (const auto it = flags.find("base"); it != flags.end()) {
    spec.base = it->second;
  }
  spec.axes = serve::parse_grid(require_flag(flags, "grid"));
  spec.workloads = split_csv(require_flag(flags, "workloads"));
  spec.threads = static_cast<std::size_t>(parse_threads(flags));
  if (flags.count("threads") == 0) {
    spec.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  spec.seed =
      static_cast<std::uint64_t>(parse_int_flag(flags, "seed", 1, 0));
  spec.population = static_cast<std::size_t>(
      parse_int_flag(flags, "population", 64, 1));
  spec.generations = static_cast<std::size_t>(
      parse_int_flag(flags, "generations", 20, 1));
  if (const auto it = flags.find("checkpoint"); it != flags.end()) {
    spec.checkpoint = it->second;
  }
  spec.resume = flags.count("resume") > 0;
  AP_REQUIRE(!spec.resume || !spec.checkpoint.empty(),
             "--resume needs --checkpoint");

  const explore::ExploreReport report = explore::run_explore(model, spec);

  std::ostream* out = &std::cout;
  std::ofstream file;
  if (const auto it = flags.find("out"); it != flags.end()) {
    file.open(it->second);
    AP_REQUIRE(file.good(), "cannot open output file: " + it->second);
    out = &file;
  }
  explore::write_frontier(*out, report);
  util::flush_and_check(*out, out == &file
                                  ? "explore frontier " + flags.at("out")
                                  : "explore frontier (stdout)");

  std::cerr << "explored " << report.grid_configs << "-cell grid in "
            << report.generations_run << " generations: "
            << report.verified << " configs simulated, frontier of "
            << report.frontier.size() << "\n";
  if (report.resumed > 0) {
    std::cerr << "resumed " << report.resumed
              << " scored rows from checkpoint " << spec.checkpoint << "\n";
  }
  if (!report.frontier.empty()) {
    const auto& best = report.frontier.front();
    std::cerr << "best: " << best.row.config.name() << " ("
              << util::fmt(best.row.mean_total_mw) << " mW, IPC "
              << util::fmt(best.row.mean_ipc) << ", "
              << util::fmt(best.row.ipc_per_watt) << " IPC/W, area "
              << util::fmt(best.area) << ")\n";
  }
  write_stats_snapshot(flags);
  return 0;
}

/// Signal plumbing for `serve`: the handler may only call the
/// async-signal-safe Daemon::notify_stop().  Set before the handlers are
/// installed, cleared after serve() returns.
serve::Daemon* g_daemon = nullptr;

void handle_stop_signal(int) {
  if (g_daemon != nullptr) g_daemon->notify_stop();
}

void handle_reload_signal(int) {
  if (g_daemon != nullptr) g_daemon->notify_reload();
}

/// Parses one repeatable --model value: "name=path" binds a named slot,
/// a bare path binds the slot "default".  (Split at the FIRST '=': slot
/// names cannot contain '=' but paths may.)
serve::ModelSpec parse_model_spec(const std::string& value) {
  const auto eq = value.find('=');
  if (eq == std::string::npos) return {"default", value};
  serve::ModelSpec spec{value.substr(0, eq), value.substr(eq + 1)};
  AP_REQUIRE(!spec.name.empty() && !spec.path.empty(),
             "--model expects PATH or NAME=PATH, got: " + value);
  return spec;
}

int cmd_serve(const ArgMap& flags) {
  // All flag validation happens before the (slow) model loads, so a bad
  // --port fails fast with exit 1.
  std::vector<serve::ModelSpec> specs;
  for (const std::string& value :
       split_multi_flag(require_flag(flags, "model"))) {
    specs.push_back(parse_model_spec(value));
  }
  serve::DaemonOptions options;
  options.port = static_cast<std::uint16_t>(
      util::parse_int(require_flag(flags, "port"), "--port", 1, 65535));
  options.queue_depth =
      static_cast<std::size_t>(parse_int_flag(flags, "queue-depth", 1024, 1));
  options.max_connections = static_cast<std::size_t>(
      parse_int_flag(flags, "max-connections", 64, 1));
  options.max_batch =
      static_cast<std::size_t>(parse_int_flag(flags, "max-batch", 32, 1));
  options.engine.threads = static_cast<std::size_t>(parse_threads(flags));
  if (flags.count("threads") == 0) {
    options.engine.threads = std::max(1u, std::thread::hardware_concurrency());
  }

  serve::Daemon daemon(specs, options);

  g_daemon = &daemon;
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  (void)sigaction(SIGINT, &action, nullptr);
  (void)sigaction(SIGTERM, &action, nullptr);
  // SIGHUP = "re-read every --model archive and hot-swap" (the classic
  // daemon reload convention); also available in-band as {"cmd":"reload"}.
  struct sigaction reload_action {};
  reload_action.sa_handler = handle_reload_signal;
  sigemptyset(&reload_action.sa_mask);
  (void)sigaction(SIGHUP, &reload_action, nullptr);

  std::string model_list;
  for (const auto& name : daemon.model_names()) {
    if (!model_list.empty()) model_list += ",";
    model_list += name;
  }
  std::cerr << "autopower serve: listening on 127.0.0.1:" << daemon.port()
            << " (models " << model_list << ", queue " << options.queue_depth
            << ", max " << options.max_connections << " connections, "
            << options.engine.threads << " engine threads)\n";
  daemon.serve();
  g_daemon = nullptr;

  const auto stats = daemon.stats();
  std::cerr << "autopower serve: drained (" << stats.requests << " requests, "
            << stats.accepted << " connections, " << stats.shed << " shed, "
            << stats.deadline_expired << " deadline-expired, "
            << stats.net_errors << " net errors)\n";
  write_stats_snapshot(flags);
  return 0;
}

int cmd_trace(const ArgMap& flags) {
  core::AutoPowerModel model;
  model.load_from_file(require_flag(flags, "model"));
  const auto config = require_flag(flags, "config");
  const auto wl = require_flag(flags, "workload");

  sim::PerfSimulator simulator;
  power::GoldenPowerModel golden;
  const auto trace = exp::build_trace(simulator, golden,
                                      arch::boom_config(config),
                                      workload::workload_by_name(wl));
  const auto predicted = model.predict_trace(trace.windows);
  const auto err = exp::trace_errors(trace.golden_total, predicted);

  std::cout << trace.windows.size() << " windows of " << trace.window_cycles
            << " cycles; max err " << util::fmt_pct(err.max_power_error, 1)
            << ", min err " << util::fmt_pct(err.min_power_error, 1)
            << ", avg err " << util::fmt_pct(err.average_error, 1) << "\n";

  if (const auto it = flags.find("csv"); it != flags.end()) {
    std::ofstream csv(it->second);
    AP_REQUIRE(csv.good(), "cannot open csv output: " + it->second);
    csv << "window,cycle,golden_mw,predicted_mw\n";
    double cycle = 0.0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      csv << i << ',' << cycle << ',' << trace.golden_total[i] << ','
          << predicted[i] << '\n';
      cycle += trace.windows[i].events.cycles();
    }
    util::flush_and_check(csv, "trace csv " + it->second);
    std::cout << "trace written to " << it->second << "\n";
  }
  return 0;
}

int usage() {
  std::cerr <<
      "usage: autopower <command> [flags]\n"
      "  list\n"
      "  train    --known C1,C15 --out model.ap [--threads N]"
      " [--stats stats.json]\n"
      "  predict  --model model.ap --config C8 --workload dhrystone"
      " [--per-component]\n"
      "  evaluate --model model.ap --known C1,C15 [--threads N]"
      " [--stats stats.json]\n"
      "  trace    --model model.ap --config C3 --workload gemm"
      " [--csv out.csv]\n"
      "  batch    --model model.ap --requests reqs.jsonl"
      " [--out results.jsonl] [--threads N] [--stats stats.json]\n"
      "  sweep    --model model.ap --grid \"RobEntry=64,96;FetchWidth=4,8\""
      " --workloads dhrystone,qsort\n"
      "           [--base C8] [--rank ipc_per_watt|ipc|power] [--top K]"
      " [--out sweep.jsonl] [--threads N] [--progress]"
      " [--checkpoint sweep.ckpt] [--resume] [--memory-budget 64M]"
      " [--stats stats.json]\n"
      "  explore  --model model.ap --grid \"RobEntry=64,96;FetchWidth=4,8\""
      " --workloads dhrystone,qsort\n"
      "           [--base C8] [--seed N] [--population N]"
      " [--generations N] [--out frontier.jsonl]\n"
      "           [--threads N] [--checkpoint explore.ckpt] [--resume]"
      " [--stats stats.json]\n"
      "  serve    --model [name=]model.ap [--model name2=other.ap ...]"
      " --port 9410\n"
      "           [--queue-depth N] [--max-connections N] [--max-batch N]"
      " [--threads N] [--stats stats.json]\n"
      "           (--model repeats; first is the default route; SIGHUP or"
      " {\"cmd\": \"reload\"} hot-swap archives)\n";
  return 2;
}

/// One dispatch row: the accepted flags and the handler.
struct Command {
  FlagSpec spec;
  int (*run)(const ArgMap&);
};

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"list", {{}, [](const ArgMap&) { return cmd_list(); }}},
      {"train",
       {{.valued = {"known", "out", "threads", "stats"}, .boolean = {},
         .repeatable = {}},
        cmd_train}},
      {"predict",
       {{.valued = {"model", "config", "workload"},
         .boolean = {"per-component"},
         .repeatable = {}},
        cmd_predict}},
      {"evaluate",
       {{.valued = {"model", "known", "threads", "stats"}, .boolean = {},
         .repeatable = {}},
        cmd_evaluate}},
      {"trace",
       {{.valued = {"model", "config", "workload", "csv"}, .boolean = {},
         .repeatable = {}},
        cmd_trace}},
      {"batch",
       {{.valued = {"model", "requests", "out", "threads", "stats"},
         .boolean = {},
         .repeatable = {}},
        cmd_batch}},
      {"sweep",
       {{.valued = {"model", "grid", "workloads", "base", "rank", "top",
                    "out", "threads", "stats", "checkpoint",
                    "memory-budget"},
         .boolean = {"progress", "resume"},
         .repeatable = {}},
        cmd_sweep}},
      {"explore",
       {{.valued = {"model", "grid", "workloads", "base", "seed",
                    "population", "generations", "out", "threads",
                    "stats", "checkpoint"},
         .boolean = {"resume"},
         .repeatable = {}},
        cmd_explore}},
      {"serve",
       {{.valued = {"port", "queue-depth", "max-connections", "max-batch",
                    "threads", "stats"},
         .boolean = {},
         .repeatable = {"model"}},
        cmd_serve}},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  // Resolve the SIMD dispatch tier up front so the util.simd.tier gauge
  // is present in every --stats snapshot, not only ones taken after a
  // kernel happened to run.
  static_cast<void>(util::simd::active_tier());
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const auto it = commands().find(command);
  if (it == commands().end()) {
    std::cerr << "unknown command: " << command << "\n";
    return usage();
  }
  try {
    const ArgMap flags = parse_flags(argc, argv, 2, it->second.spec);
    return it->second.run(flags);
  } catch (const std::exception& e) {
    // Not only util::Error: parallel_for rethrows a worker's exception
    // with its original type (bad_alloc, system_error, ...), and that
    // must still exit 1 with a message at every --threads.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
