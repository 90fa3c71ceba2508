// Feature assembly for AutoPower's sub-models.
//
// Three feature families, matching the paper:
//   * H  — the component's hardware parameters (Table III row),
//   * E  — the component's event-parameter rates from the performance
//          simulator,
//   * P  — program-level features that are microarchitecture independent
//          (AutoPower is the first to include these; they hedge against
//          performance-simulator inaccuracy, Sec. II-B).
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "arch/component.hpp"
#include "arch/events.hpp"
#include "arch/params.hpp"
#include "core/sample.hpp"
#include "workload/workload.hpp"

namespace autopower::core {

/// Feature schema selector for a component sub-model.
struct FeatureSpec {
  bool hardware = true;       ///< include H
  bool events = false;        ///< include E
  bool program = false;       ///< include P

  /// Hardware-only models (F_reg, F_gate, F_sta, hardware scaling).
  [[nodiscard]] static FeatureSpec h() { return {true, false, false}; }
  /// Activity models on (H, E) (F_alpha', F_act, F_var).
  [[nodiscard]] static FeatureSpec he() { return {true, true, false}; }
  /// SRAM activity models on (H, E, P).
  [[nodiscard]] static FeatureSpec hep() { return {true, true, true}; }
};

/// Feature names for one component under a spec (stable order: H, E, P).
[[nodiscard]] std::vector<std::string> feature_names(arch::ComponentKind c,
                                                     const FeatureSpec& spec);

/// Feature vector for one component and one evaluation context.
[[nodiscard]] std::vector<double> feature_vector(
    arch::ComponentKind c, const FeatureSpec& spec,
    const arch::HardwareConfig& cfg, const arch::EventVector& events,
    const workload::ProgramFeatures& program);

/// Appends the same values to `out` without intermediate vectors.
void feature_vector_into(arch::ComponentKind c, const FeatureSpec& spec,
                         const arch::HardwareConfig& cfg,
                         const arch::EventVector& events,
                         const workload::ProgramFeatures& program,
                         std::vector<double>& out);

/// Number of program-level (P) features.
inline constexpr std::size_t kNumProgramFeatures = 10;

/// The P block of a feature row, in workload::ProgramFeatures::names()
/// order.
[[nodiscard]] std::array<double, kNumProgramFeatures> program_feature_values(
    const workload::ProgramFeatures& program);

/// The H block of component c's feature row for `cfg`, read into `buf`
/// (no heap vector): the input of the structural sub-models.
std::span<const double> hardware_features(
    arch::ComponentKind c, const arch::HardwareConfig& cfg,
    std::array<double, arch::kNumHwParams>& buf);

/// The distinct configurations of `samples`, in first-seen order:
/// structural sub-models (F_reg, F_gate, the SRAM hardware model) get one
/// sample per known configuration, not one per workload.
[[nodiscard]] std::vector<const arch::HardwareConfig*> unique_configs(
    std::span<const EvalContext> samples);

}  // namespace autopower::core
