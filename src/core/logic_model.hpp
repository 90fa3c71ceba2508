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

  /// Per-context register and combinational power: predict_tile of the
  /// one H+E+P row feature_vector builds for each context, ranked by this
  /// model's own forest bundle.  The batched path is predict_tile, which
  /// AutoPowerModel feeds one shared feature tile.
  void predict_batch(std::span<const EvalContext> ctxs,
                     std::span<double> reg_out,
                     std::span<double> comb_out) const;

  /// Eq. 11-12 over one feature tile, the one implementation of the
  /// formulas.  `tile` holds H+E+P rows, as feature_rows assembles them,
  /// ranked by `forests`, a bundle holding forests(); cfgs[i] is the
  /// configuration row i's H block came from.  F_act and F_var read the
  /// H+E prefix.  F_reg and F_sta read only the component's H parameters
  /// of cfgs[i], once per run of rows sharing a cfg pointer.  Element i
  /// depends only on row i.
  void predict_tile(std::span<const arch::HardwareConfig* const> cfgs,
                    const ml::ForestBundle& forests,
                    const ml::ForestTile& tile, std::span<double> reg_out,
                    std::span<double> comb_out) const;

  /// The GBT sub-models predict_tile reads through its ForestBundle.
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
