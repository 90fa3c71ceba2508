#include "testcore/generators.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "serve/jsonl.hpp"
#include "util/rng.hpp"

namespace autopower::testcore {

namespace {

/// Distinct values each hardware axis takes across the BOOM design
/// space, computed once.  Mixing per-axis observed values keeps every
/// generated point inside the envelope the simulator was written for.
const std::array<std::vector<int>, arch::kNumHwParams>& axis_pools() {
  static const auto* pools = [] {
    auto* p = new std::array<std::vector<int>, arch::kNumHwParams>;
    for (const auto& cfg : arch::boom_design_space()) {
      for (const arch::HwParam param : arch::all_hw_params()) {
        auto& pool = (*p)[static_cast<std::size_t>(param)];
        const int v = cfg.value(param);
        if (std::find(pool.begin(), pool.end(), v) == pool.end()) {
          pool.push_back(v);
        }
      }
    }
    return p;
  }();
  return *pools;
}

const std::vector<std::string>& known_workload_names() {
  static const auto* names = [] {
    auto* n = new std::vector<std::string>;
    for (const auto& w : workload::riscv_tests_workloads()) {
      n->push_back(w.name);
    }
    for (const auto& w : workload::trace_workloads()) n->push_back(w.name);
    for (const auto& w : workload::extension_workloads()) {
      n->push_back(w.name);
    }
    return n;
  }();
  return *names;
}

}  // namespace

arch::HardwareConfig random_hardware_config(Pcg32& rng) {
  std::array<int, arch::kNumHwParams> values{};
  std::uint64_t h = util::hash_str("generated-config");
  for (std::size_t i = 0; i < arch::kNumHwParams; ++i) {
    const auto& pool = axis_pools()[i];
    values[i] = pool[rng.index(pool.size())];
    h = util::hash_combine(h, static_cast<std::uint64_t>(values[i]));
  }
  std::ostringstream name;
  name << "G" << std::hex << (h >> 32);
  return arch::HardwareConfig(name.str(), values);
}

workload::WorkloadPhase random_workload_phase(Pcg32& rng, int index) {
  workload::WorkloadPhase ph;
  ph.name = "gen_phase_" + std::to_string(index);
  ph.weight = rng.next_range(0.2, 1.0);
  ph.ilp = rng.next_range(0.8, 5.0);
  // Draw raw mix weights and scale them to a total below 0.85, keeping
  // the ALU remainder positive.
  double raw[5];
  double sum = 0.0;
  for (double& r : raw) {
    r = rng.next_range(0.05, 1.0);
    sum += r;
  }
  const double total = rng.next_range(0.25, 0.85);
  ph.branch_frac = raw[0] / sum * total;
  ph.load_frac = raw[1] / sum * total;
  ph.store_frac = raw[2] / sum * total;
  ph.fp_frac = rng.next_bool(0.4) ? raw[3] / sum * total : 0.0;
  ph.muldiv_frac = raw[4] / sum * total * 0.3;
  ph.branch_entropy = rng.next_range(0.0, 1.0);
  ph.dcache_footprint_kb = rng.next_range(1.0, 128.0);
  ph.dcache_stride_frac = rng.next_range(0.0, 1.0);
  ph.icache_footprint_kb = rng.next_range(1.0, 32.0);
  ph.mem_serialisation = rng.next_range(0.0, 0.8);
  return ph;
}

workload::WorkloadProfile random_workload_profile(Pcg32& rng) {
  workload::WorkloadProfile profile;
  const int phases = rng.next_int(1, 4);
  std::uint64_t h = util::hash_str("generated-workload");
  for (int i = 0; i < phases; ++i) {
    profile.phases.push_back(random_workload_phase(rng, i));
    h = util::hash_combine(h, rng.next_u64());
  }
  std::ostringstream name;
  name << "gen_wl_" << std::hex << (h >> 40);
  profile.name = name.str();
  profile.instructions = 20'000 + rng.next_below(100'000);
  return profile;
}

ml::Dataset random_dataset(Pcg32& rng, const DatasetShape& shape) {
  const int features = rng.next_int(shape.min_features, shape.max_features);
  const int rows = rng.next_int(shape.min_rows, shape.max_rows);

  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(features));
  for (int j = 0; j < features; ++j) {
    names.emplace_back("f").append(std::to_string(j));
  }

  // Column-major generation so each column can have its own style, then
  // transpose into add_sample rows.
  std::vector<std::vector<double>> columns(
      static_cast<std::size_t>(features));
  for (auto& col : columns) {
    col.resize(static_cast<std::size_t>(rows));
    const int style = rng.next_int(0, 3);
    if (style == 0) {
      // Constant column: split search must yield no gain, never divide
      // by a zero-width threshold window.
      const double v = rng.next_range(-5.0, 5.0);
      std::fill(col.begin(), col.end(), v);
    } else if (style <= 2) {
      // Small discrete pool: guaranteed duplicate values -> tie handling
      // in the sorted-scan split search.
      const int pool_size = rng.next_int(2, 4);
      std::array<double, 4> pool{};
      for (int k = 0; k < pool_size; ++k) {
        pool[static_cast<std::size_t>(k)] = rng.next_range(-10.0, 10.0);
      }
      for (double& v : col) {
        v = pool[rng.index(static_cast<std::size_t>(pool_size))];
      }
    } else {
      // Continuous column: a util::Rng unit stream mapped onto [-10, 10).
      util::Rng crng(rng.next_u64());
      for (double& v : col) v = -10.0 + 20.0 * crng.next_unit();
    }
  }

  // Targets: linear signal over the columns plus noise, occasionally
  // pure noise (trees must cope with unlearnable targets too).
  std::vector<double> coeff(static_cast<std::size_t>(features));
  for (double& c : coeff) c = rng.next_range(-2.0, 2.0);
  const bool pure_noise = rng.next_bool(0.2);

  ml::Dataset data(std::move(names));
  std::vector<double> row(static_cast<std::size_t>(features));
  for (int i = 0; i < rows; ++i) {
    double target = 0.0;
    for (int j = 0; j < features; ++j) {
      row[static_cast<std::size_t>(j)] =
          columns[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
      target += coeff[static_cast<std::size_t>(j)] *
                row[static_cast<std::size_t>(j)];
    }
    if (pure_noise) target = 0.0;
    target += rng.next_range(-1.0, 1.0);
    data.add_sample(row, target);
  }
  return data;
}

ml::GbtOptions random_gbt_options(Pcg32& rng) {
  ml::GbtOptions opt;
  opt.num_rounds = rng.next_int(2, 10);
  opt.learning_rate = rng.next_range(0.05, 0.5);
  opt.nonnegative_prediction = rng.next_bool(0.3);
  opt.tree.max_depth = rng.next_int(1, 4);
  opt.tree.lambda = rng.next_range(0.1, 3.0);
  opt.tree.gamma = rng.next_bool(0.5) ? 0.0 : rng.next_range(0.0, 1.0);
  opt.tree.min_child_weight = rng.next_range(0.5, 3.0);
  return opt;
}

sim::SimOptions small_sim_options(Pcg32& rng) {
  sim::SimOptions opt;
  opt.window_cycles = rng.next_int(20, 80);
  opt.sample_accesses = rng.next_int(200, 700);
  opt.sample_branches = rng.next_int(200, 700);
  opt.phase_repeats = rng.next_int(2, 6);
  return opt;
}

std::vector<serve::BatchRequest> random_request_batch(Pcg32& rng,
                                                      std::size_t max_size,
                                                      bool include_invalid) {
  const auto& configs = arch::boom_design_space();
  const auto& workloads = known_workload_names();
  const auto& riscv = workload::riscv_tests_workloads();
  const std::size_t size = 1 + rng.index(max_size);
  std::vector<serve::BatchRequest> batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    serve::BatchRequest req;
    const int mode = rng.next_int(0, 2);
    req.mode = mode == 0   ? serve::PredictMode::kTotal
               : mode == 1 ? serve::PredictMode::kPerComponent
                           : serve::PredictMode::kTrace;
    if (include_invalid && rng.next_bool(0.15)) {
      req.config = "X";
      req.config += std::to_string(rng.next_below(100));
    } else {
      req.config = configs[rng.index(configs.size())].name();
    }
    if (include_invalid && rng.next_bool(0.15)) {
      req.workload = "nosuch_" + std::to_string(rng.next_below(100));
    } else if (req.mode == serve::PredictMode::kTrace) {
      // Trace responses carry one value per 50-cycle window; keep the
      // generated traces to the ~100k-instruction riscv-tests workloads
      // (a GEMM/SPMM trace would be millions of windows per case).
      req.workload = riscv[rng.index(riscv.size())].name;
    } else {
      req.workload = workloads[rng.index(workloads.size())];
    }
    batch.push_back(std::move(req));
  }
  return batch;
}

std::string requests_to_jsonl(const std::vector<serve::BatchRequest>& requests,
                              Pcg32& rng) {
  std::ostringstream out;
  for (const auto& req : requests) {
    if (rng.next_bool(0.2)) out << "\n";  // blank lines are skipped
    out << "{\"config\": \"" << serve::json_escape(req.config)
        << "\", \"workload\": \"" << serve::json_escape(req.workload) << "\"";
    // "mode" is optional when it is the default "total".
    if (req.mode != serve::PredictMode::kTotal || rng.next_bool(0.5)) {
      out << ", \"mode\": \"" << serve::to_string(req.mode) << "\"";
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace autopower::testcore
