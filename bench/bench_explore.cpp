// Exploration vs the exhaustive sweep: the explore loop must find the
// grid's true ipc_per_watt optimum while touching an order of magnitude
// fewer simulator cells.
//
//   1. Exhaustive baseline: serve::run_sweep over a grid of
//      AUTOPOWER_BENCH_EXPLORE_CELLS configurations (default 1e5),
//      metric ipc_per_watt, top-1 — every configuration is simulated.
//   2. explore::run_explore over the SAME grid with a fresh structural
//      cache (no warm-state subsidy from the baseline): every candidate
//      it draws is simulated, nothing else.
//
// Self-checked bars (exit 1 on a miss):
//   * equality: explore's best ipc_per_watt must equal the exhaustive
//     optimum exactly — explore rows are bit-identical to sweep rows,
//     so finding the argmax config means exact agreement;
//   * economy:  explore's simulated configurations must be at most 1/10
//     of the grid (the ">=10x fewer simulator cells" claim).
//
// `--json <path>` writes the headline numbers (both wall times,
// simulator-calls-avoided ratio) for tools/check.sh to collect into
// BENCH_explore.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "explore/explore.hpp"
#include "power/golden.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "util/structural_cache.hpp"

using namespace autopower;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::size_t target_cells() {
  const char* env = std::getenv("AUTOPOWER_BENCH_EXPLORE_CELLS");
  if (env == nullptr || *env == '\0') return 100'000;
  const unsigned long long v = std::strtoull(env, nullptr, 10);
  return v == 0 ? 100'000 : static_cast<std::size_t>(v);
}

// Builds a grid of roughly `target` configurations over window/queue
// parameters (cheap per-cell under the shared structural memo, all
// values plausible Table II neighbourhood points so every cell
// evaluates).  Same recipe as bench_sim_throughput's streaming stage.
std::vector<serve::SweepAxis> bench_axes(std::size_t target) {
  const struct {
    arch::HwParam param;
    int first, step;
  } pools[] = {
      {arch::HwParam::kRobEntry, 32, 16},
      {arch::HwParam::kFetchBufferEntry, 8, 4},
      {arch::HwParam::kLdqStqEntry, 8, 4},
      {arch::HwParam::kIntPhyRegister, 48, 8},
      {arch::HwParam::kFpPhyRegister, 48, 8},
      {arch::HwParam::kBranchCount, 8, 2},
      {arch::HwParam::kMshrEntry, 2, 1},
  };
  std::vector<serve::SweepAxis> axes;
  std::size_t cells = 1;
  for (const auto& pool : pools) {
    const std::size_t want = target / cells;
    if (want < 2) break;
    const std::size_t n = std::min<std::size_t>(want, 10);
    serve::SweepAxis axis{pool.param, {}};
    for (std::size_t i = 0; i < n; ++i) {
      axis.values.push_back(pool.first + static_cast<int>(i) * pool.step);
    }
    cells *= n;
    axes.push_back(std::move(axis));
  }
  return axes;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  bool ok = true;

  const auto axes = bench_axes(target_cells());
  const std::vector<std::string> workloads = {"dhrystone"};
  const serve::GridCursor cursor(arch::boom_config("C8"), axes);
  std::printf("grid                      : %zu configs x %zu workload(s)\n",
              cursor.size(), workloads.size());

  sim::PerfSimulator train_sim;
  power::GoldenPowerModel golden;
  const auto data = exp::ExperimentData::build(train_sim, golden);
  core::AutoPowerModel model;
  model.train(data.contexts_of(exp::ExperimentData::training_configs(2)),
              golden);

  // --- 1. Exhaustive baseline: every configuration simulated -------------
  serve::SweepSpec sweep_spec;
  sweep_spec.base = "C8";
  sweep_spec.axes = axes;
  sweep_spec.workloads = workloads;
  sweep_spec.threads = 2;
  sweep_spec.metric = serve::SweepMetric::kIpcPerWatt;
  sweep_spec.top = 1;
  auto start = std::chrono::steady_clock::now();
  const auto sweep = serve::run_sweep(model, sweep_spec);
  const double sweep_s = seconds_since(start);
  if (sweep.rows.empty()) {
    std::printf("FAIL: exhaustive sweep produced no rows\n");
    return 1;
  }
  const auto& sweep_best = sweep.rows.front();
  std::printf("exhaustive sweep @ 2t     : %7.1f cells/s  (%.1f s, "
              "%zu simulator configs)\n",
              double(sweep.evaluations) / sweep_s, sweep_s, sweep.configs);
  std::printf("exhaustive optimum        : %s  ipc/W=%.6f\n",
              sweep_best.config.name().c_str(), sweep_best.ipc_per_watt);

  // --- 2. Evolutionary search, fresh structural cache --------------------
  explore::ExploreSpec spec;
  spec.base = "C8";
  spec.axes = axes;
  spec.workloads = workloads;
  spec.threads = 2;
  spec.seed = 1;
  spec.population = 64;
  spec.generations = 40;
  start = std::chrono::steady_clock::now();
  const auto report = explore::run_explore(
      model, spec, std::make_shared<util::StructuralSimCache>());
  const double explore_s = seconds_since(start);
  if (report.frontier.empty()) {
    std::printf("FAIL: explore produced an empty frontier\n");
    return 1;
  }
  // The frontier is sorted ipc_per_watt descending; its head is the best
  // configuration found.
  const auto& explore_best = report.frontier.front().row;
  const double avoided_ratio =
      double(cursor.size()) / double(std::max<std::size_t>(1, report.verified));
  std::printf("explore @ 2t              : %.2f s, %zu simulator configs\n",
              explore_s, report.verified);
  std::printf("explore best              : %s  ipc/W=%.6f\n",
              explore_best.config.name().c_str(), explore_best.ipc_per_watt);
  std::printf("simulator calls avoided   : %.1fx fewer than exhaustive "
              "(bar 10.0x)\n",
              avoided_ratio);

  if (explore_best.ipc_per_watt != sweep_best.ipc_per_watt) {
    std::printf("FAIL: explore best ipc_per_watt %.9f != exhaustive optimum "
                "%.9f\n",
                explore_best.ipc_per_watt, sweep_best.ipc_per_watt);
    ok = false;
  }
  if (report.verified * 10 > cursor.size()) {
    std::printf("FAIL: explore simulated %zu configs — more than 1/10 of the "
                "%zu-cell grid\n",
                report.verified, cursor.size());
    ok = false;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(
          f,
          "{\n"
          "  \"grid_configs\": %zu,\n"
          "  \"sweep_s\": %.3f,\n"
          "  \"sweep_cells_per_s\": %.1f,\n"
          "  \"explore_s\": %.3f,\n"
          "  \"simulator_configs_verified\": %zu,\n"
          "  \"sim_calls_avoided_ratio\": %.2f,\n"
          "  \"best_ipc_per_watt\": %.9f,\n"
          "  \"optimum_matched\": %s\n"
          "}\n",
          cursor.size(), sweep_s, double(sweep.evaluations) / sweep_s,
          explore_s, report.verified, avoided_ratio,
          explore_best.ipc_per_watt,
          explore_best.ipc_per_watt == sweep_best.ipc_per_watt ? "true"
                                                               : "false");
      std::fclose(f);
    } else {
      std::printf("FAIL: cannot write %s\n", json_path.c_str());
      ok = false;
    }
  }

  std::printf(ok ? "PASS\n" : "FAIL\n");
  return ok ? 0 : 1;
}
