// Logic power model (paper Sec. II-C, Eq. 11-12).
//
// Decouples the remaining (non-clock, non-SRAM) power of a component into:
//   * register power:       P_reg  = F_reg(H) * F_act(H, E)   (Eq. 11)
//     — a ridge hardware model for the register count times a GBT activity
//     model whose label is the golden register power per register;
//   * combinational power:  P_comb = F_sta(H) * F_var(H, E)   (Eq. 12)
//     — a ridge "stable power" model trained on the per-configuration
//     average combinational power across the training workloads, times a
//     GBT "variation" model on the ratio P_comb / P_sta.
#pragma once

#include <span>
#include <vector>

#include "arch/component.hpp"
#include "core/sample.hpp"
#include "ml/forest_bundle.hpp"
#include "ml/gbt.hpp"
#include "ml/linear.hpp"
#include "power/golden.hpp"

namespace autopower::core {

/// Hyper-parameters of the logic sub-models.
struct LogicModelOptions {
  ml::RidgeOptions ridge{.lambda = 1e-4, .nonnegative_prediction = true};
  ml::GbtOptions gbt{
      .num_rounds = 120,
      .learning_rate = 0.15,
      .tree = {.max_depth = 3, .lambda = 1.0, .gamma = 0.0,
               .min_child_weight = 1.0},
      .nonnegative_prediction = true};
};

/// Logic power model for a single component.
class LogicPowerModel {
 public:
  LogicPowerModel() = default;
  explicit LogicPowerModel(LogicModelOptions options) : options_(options) {}

  void train(arch::ComponentKind c, std::span<const EvalContext> samples,
             const power::GoldenPowerModel& golden);

  /// Predicted logic power (register + combinational, mW): predict_batch
  /// of one context.
  [[nodiscard]] double predict(const EvalContext& ctx) const;

  /// Per-context register and combinational power on the one H+E+P row
  /// feature_vector builds for each context, F_act and F_var ranked and
  /// walked by this model's own forest bundle.  AutoPowerModel's batched
  /// path evaluates them once per activity cell and calls combine().
  void predict_batch(std::span<const EvalContext> ctxs,
                     std::span<double> reg_out,
                     std::span<double> comb_out) const;

  /// Eq. 11-12's structural terms of one configuration.
  struct Terms {
    double registers = 0.0;  ///< F_reg(H)
    double stable = 0.0;     ///< F_sta(H)
  };
  /// The terms of the configuration whose component H is `h`
  /// (hardware_features order).
  [[nodiscard]] Terms terms(std::span<const double> h) const;
  /// Eq. 11 and 12, the one implementation of the formulas:
  /// reg = max(0, F_reg F_act), comb = max(0, F_sta F_var), with
  /// activity = {F_act, F_var} (forests() order).
  void combine(const Terms& t, std::span<const double> activity,
               double& reg, double& comb) const;

  /// The GBT sub-models F_act and F_var, read through a ForestBundle.
  [[nodiscard]] std::vector<const ml::GBTRegressor*> forests() const;

  /// The component this model was trained or loaded for.
  [[nodiscard]] arch::ComponentKind component() const noexcept {
    return component_;
  }
  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Serialization (see util/archive.hpp).
  void save(util::ArchiveWriter& out) const;
  void load(util::ArchiveReader& in);

 private:
  arch::ComponentKind component_{};
  LogicModelOptions options_;
  ml::RidgeRegression reg_count_model_;  // F_reg(H)
  ml::GBTRegressor reg_act_model_;       // F_act(H, E)
  ml::RidgeRegression comb_stable_model_;  // F_sta(H)
  ml::GBTRegressor comb_var_model_;        // F_var(H, E)
  ml::ForestBundle bundle_;  // forests(), for predict_batch()
  bool trained_ = false;
};

}  // namespace autopower::core
