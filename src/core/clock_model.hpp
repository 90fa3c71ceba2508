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

  /// Predicted clock power (mW) via Eq. 7: predict_tile of the one H+E+P
  /// row feature_vector builds for `ctx`, ranked by this model's own
  /// forest bundle.
  [[nodiscard]] double predict(const EvalContext& ctx) const;

  /// predict() of each context, in order.  The batched path is
  /// predict_tile, which AutoPowerModel feeds one shared feature tile.
  [[nodiscard]] std::vector<double> predict_batch(
      std::span<const EvalContext> ctxs) const;

  /// Eq. 7 over one feature tile, the one implementation of the formula.
  /// `tile` holds H+E+P rows, as feature_rows assembles them, ranked by
  /// `forests`, a bundle holding forests() (AutoPowerModel shares one per
  /// component across the three groups); cfgs[i] is the configuration
  /// row i's H block came from.  alpha' reads each row's H+E prefix; R
  /// and g read only the component's H parameters of cfgs[i], once per
  /// run of rows sharing a cfg pointer.  out[i] depends only on row i.
  void predict_tile(std::span<const arch::HardwareConfig* const> cfgs,
                    const ml::ForestBundle& forests,
                    const ml::ForestTile& tile, std::span<double> out) const;

  /// The GBT sub-models predict_tile reads through its ForestBundle.
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
