#include "exp/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "workload/workload.hpp"

namespace autopower::exp {

ExperimentData ExperimentData::build(const sim::PerfSimulator& sim,
                                     const power::GoldenPowerModel& golden) {
  ExperimentData data;
  const auto& configs = arch::boom_design_space();
  const auto& workloads = workload::riscv_tests_workloads();
  data.samples_.reserve(configs.size() * workloads.size());
  for (const auto& cfg : configs) {
    for (const auto& w : workloads) {
      LabeledSample s;
      s.ctx.cfg = &cfg;
      s.ctx.workload = w.name;
      s.ctx.program = workload::program_features(w);
      s.ctx.events = sim.simulate(cfg, w);
      s.golden = golden.evaluate(cfg, s.ctx.events);
      data.samples_.push_back(std::move(s));
    }
  }
  return data;
}

namespace {
bool contains(std::span<const std::string> names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}
}  // namespace

std::vector<core::EvalContext> ExperimentData::contexts_of(
    std::span<const std::string> config_names) const {
  std::vector<core::EvalContext> out;
  for (const auto& s : samples_) {
    if (contains(config_names, s.ctx.cfg->name())) out.push_back(s.ctx);
  }
  AP_REQUIRE(!out.empty(), "no samples match the requested configurations");
  return out;
}

std::vector<const LabeledSample*> ExperimentData::samples_excluding(
    std::span<const std::string> config_names) const {
  std::vector<const LabeledSample*> out;
  for (const auto& s : samples_) {
    if (!contains(config_names, s.ctx.cfg->name())) out.push_back(&s);
  }
  return out;
}

std::vector<std::string> ExperimentData::training_configs(int k) {
  AP_REQUIRE(k >= 2 && k <= 15, "training set size must be in [2, 15]");
  // Evenly spread indices over C1..C15 (always including both corners).
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int idx = static_cast<int>(
        std::lround(static_cast<double>(i) * 14.0 / (k - 1)));
    out.emplace_back("C").append(std::to_string(idx + 1));
  }
  return out;
}

}  // namespace autopower::exp
