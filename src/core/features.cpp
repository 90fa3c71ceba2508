#include "core/features.hpp"

#include <algorithm>

namespace autopower::core {

std::vector<std::string> feature_names(arch::ComponentKind c,
                                       const FeatureSpec& spec) {
  std::vector<std::string> out;
  if (spec.hardware) {
    for (arch::HwParam p : arch::component_hw_params(c)) {
      out.push_back("H." + std::string(arch::hw_param_name(p)));
    }
  }
  if (spec.events) {
    auto e = arch::component_event_feature_names(c);
    out.insert(out.end(), e.begin(), e.end());
  }
  if (spec.program) {
    auto p = workload::ProgramFeatures::names();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

void feature_vector_into(arch::ComponentKind c, const FeatureSpec& spec,
                         const arch::HardwareConfig& cfg,
                         const arch::EventVector& events,
                         const workload::ProgramFeatures& program,
                         std::vector<double>& out) {
  // Appends the H / E values straight from their scalar accessors — no
  // per-family temporary vectors — so assembling a row-major batch is
  // one contiguous fill of the destination buffer.
  if (spec.hardware) {
    for (arch::HwParam p : arch::component_hw_params(c)) {
      out.push_back(cfg.value_d(p));
    }
  }
  if (spec.events) {
    for (arch::EventKind e : arch::component_events(c)) {
      out.push_back(events.rate(e));
    }
  }
  if (spec.program) {
    const auto p = program_feature_values(program);
    out.insert(out.end(), p.begin(), p.end());
  }
}

std::vector<double> feature_vector(arch::ComponentKind c,
                                   const FeatureSpec& spec,
                                   const arch::HardwareConfig& cfg,
                                   const arch::EventVector& events,
                                   const workload::ProgramFeatures& program) {
  std::vector<double> out;
  feature_vector_into(c, spec, cfg, events, program, out);
  return out;
}

std::array<double, kNumProgramFeatures> program_feature_values(
    const workload::ProgramFeatures& program) {
  // Same order as workload::ProgramFeatures::names().
  return {program.log_instructions, program.branch_frac,
          program.load_frac,        program.store_frac,
          program.fp_frac,          program.muldiv_frac,
          program.ilp,              program.branch_entropy,
          program.dcache_footprint_kb, program.icache_footprint_kb};
}

std::span<const double> hardware_features(
    arch::ComponentKind c, const arch::HardwareConfig& cfg,
    std::array<double, arch::kNumHwParams>& buf) {
  const auto params = arch::component_hw_params(c);
  for (std::size_t k = 0; k < params.size(); ++k) {
    buf[k] = cfg.value_d(params[k]);
  }
  return std::span<const double>(buf).first(params.size());
}

std::vector<const arch::HardwareConfig*> unique_configs(
    std::span<const EvalContext> samples) {
  std::vector<const arch::HardwareConfig*> out;
  for (const auto& s : samples) {
    if (std::find(out.begin(), out.end(), s.cfg) == out.end()) {
      out.push_back(s.cfg);
    }
  }
  return out;
}

}  // namespace autopower::core
