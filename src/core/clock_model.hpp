// Clock power model (paper Sec. II-A, Eq. 1-8).
//
// Decouples the clock power of one component into three sub-models:
//   * F_reg  — register count R, ridge regression on H,
//   * F_gate — gating rate g, ridge regression on H,
//   * F_a'   — effective active rate alpha', XGBoost-style GBT on (H, E).
//
// Prediction assembles Eq. 7:
//   P_clk = R (1 - g) p_reg + alpha' R g
// with p_reg looked up from the technology library.  alpha' (Eq. 6)
// absorbs the gating-cell term and, because its labels are extracted from
// golden clock power, also the component's cell-mix deviation from the
// library-nominal p_reg — which is precisely why the paper trains alpha'
// rather than the raw active rate.
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

/// Hyper-parameters of the clock sub-models.
struct ClockModelOptions {
  ml::RidgeOptions ridge{.lambda = 1e-4, .nonnegative_prediction = true};
  ml::GbtOptions gbt{
      .num_rounds = 120,
      .learning_rate = 0.15,
      .tree = {.max_depth = 3, .lambda = 1.0, .gamma = 0.0,
               .min_child_weight = 1.0},
      .nonnegative_prediction = true};
  /// Ablation switch: model alpha' with ridge instead of GBT (the paper
  /// argues the correlation is too complex for a linear model; the
  /// bench_abl_submodel_choice benchmark quantifies that claim).
  bool linear_alpha = false;
};

/// Clock power model for a single component.
class ClockPowerModel {
 public:
  ClockPowerModel() = default;
  explicit ClockPowerModel(ClockModelOptions options) : options_(options) {}

  /// Trains the three sub-models.  `samples` are the training
  /// (configuration, workload) contexts; golden labels (register counts,
  /// gating rates, clock power) are read from the golden flow.
  void train(arch::ComponentKind c, std::span<const EvalContext> samples,
             const power::GoldenPowerModel& golden);

  /// Predicted clock power (mW) via Eq. 7 on the one H+E+P row
  /// feature_vector builds for `ctx`, alpha' ranked and walked by this
  /// model's own forest bundle.
  [[nodiscard]] double predict(const EvalContext& ctx) const;

  /// predict() of each context, in order.  AutoPowerModel's batched path
  /// evaluates alpha' once per activity cell and calls combine().
  [[nodiscard]] std::vector<double> predict_batch(
      std::span<const EvalContext> ctxs) const;

  /// Eq. 7's structural terms of one configuration.
  struct Terms {
    double registers = 0.0;  ///< R = F_reg(H)
    double gating = 0.0;     ///< g = F_gate(H), clamped to [0, 0.99]
  };
  /// The terms of the configuration whose component H is `h`
  /// (hardware_features order).
  [[nodiscard]] Terms terms(std::span<const double> h) const;
  /// Eq. 7, the one implementation of the formula:
  /// P_clk = max(0, R (1 - g) p_reg + alpha' R g).
  [[nodiscard]] double combine(const Terms& t, double alpha) const;
  /// alpha' of the linear_alpha ablation ridge on one H+E row.
  [[nodiscard]] double linear_alpha_of(std::span<const double> he) const;

  /// The GBT sub-model alpha' (none under linear_alpha), read through a
  /// ForestBundle.
  [[nodiscard]] std::vector<const ml::GBTRegressor*> forests() const;
  /// True when alpha' is the ablation ridge, which reads the raw H+E row
  /// instead of going through forests().
  [[nodiscard]] bool linear_alpha() const noexcept {
    return options_.linear_alpha;
  }

  // Structural sub-model outputs, exposed for the Fig. 7 sub-model
  // accuracy study.
  [[nodiscard]] double predict_register_count(
      const arch::HardwareConfig& cfg) const;
  [[nodiscard]] double predict_gating_rate(
      const arch::HardwareConfig& cfg) const;

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
  ClockModelOptions options_;
  ml::RidgeRegression reg_model_;   // F_reg(H)
  ml::RidgeRegression gate_model_;  // F_gate(H)
  ml::GBTRegressor alpha_model_;    // F_a'(H, E), default
  ml::RidgeRegression alpha_linear_model_;  // F_a' ablation variant
  ml::ForestBundle bundle_;  // forests(), for predict()
  bool trained_ = false;
};

}  // namespace autopower::core
