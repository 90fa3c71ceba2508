// Interfaces between the runner's parts: set-up (runner.cpp), the timed
// end-to-end workloads (workloads.cpp) and the traced layer replays
// (layers.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/autopower.hpp"
#include "daemon.hpp"

namespace perfbench {

struct Env {
  std::string workload;  ///< sweep | trace | serve
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< archives, daemon logs and span files
  std::string archive;   ///< this run's model archive, removed at exit
  std::string cli;       ///< the `autopower` binary built beside the runner
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints: the result line plus informational notes.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Prints one "name: text" line before the result line.
  static void note(const std::string& name, const std::string& text);
};

/// One set-up: label simulation over the known configurations, training,
/// archive save and load and, on request, the workload's own part (the
/// golden trace on `trace`, a ready daemon on `serve`).
struct Prepared {
  std::shared_ptr<const autopower::core::AutoPowerModel> model;
  std::vector<double> golden_trace;  ///< trace: golden mW per window
  std::unique_ptr<DaemonProcess> daemon;
  double seconds = 0.0;
};

Prepared prepare(const Env& env, Tracer& tracer, bool workload_part);

Result run_sweep_workload(const Env& env, Prepared& prepared);
Result run_trace_workload(const Env& env, Prepared& prepared);
Result run_serve_workload(const Env& env, Prepared& prepared);

/// Traced replays of every layer through its public calls, on the
/// inputs the seed generates; fills the per-layer metrics.
void run_layer_replays(const Env& env, const Prepared& prepared,
                       Tracer& tracer, Result& result);

/// Formats a double with all its digits.
std::string num(double value);

}  // namespace perfbench
