// SRAM power model (paper Sec. II-B, Fig. 3).
//
// Follows the four-level hierarchy Component -> SRAM Position ->
// SRAM Block -> SRAM Macro with a top-down approach:
//
//   1. feature transfer: an SRAM Position inherits the H and E (and
//      program-level P) features of its component;
//   2. hardware model: the scaling-pattern model infers the block
//      width/depth/count from hardware parameters (core/scaling_model);
//   3. activity model: GBT regressors on (H, E, P) predict the block-level
//      read and (mask-weighted) write frequencies;
//   4. macro-level mapping: the VLSI flow's deterministic rule decomposes
//      the predicted block into macros; per-macro frequency is the block
//      frequency over N_col (Eq. 9); power follows Eq. 10 with the
//      pin-toggle constant C estimated from golden power on the training
//      configurations.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "arch/component.hpp"
#include "core/sample.hpp"
#include "core/scaling_model.hpp"
#include "ml/forest_bundle.hpp"
#include "ml/gbt.hpp"
#include "power/golden.hpp"

namespace autopower::core {

/// Hyper-parameters of the SRAM sub-models.
struct SramModelOptions {
  ml::GbtOptions gbt{
      .num_rounds = 120,
      .learning_rate = 0.15,
      .tree = {.max_depth = 3, .lambda = 1.0, .gamma = 0.0,
               .min_child_weight = 1.0},
      .nonnegative_prediction = true};
  /// Include program-level features in the activity model (the paper's
  /// novelty; switchable for the ablation benchmark).
  bool program_features = true;
};

/// SRAM power model for a single component (all its SRAM Positions).
class SramPowerModel {
 public:
  SramPowerModel() = default;
  explicit SramPowerModel(SramModelOptions options) : options_(options) {}

  void train(arch::ComponentKind c, std::span<const EvalContext> samples,
             const power::GoldenPowerModel& golden);

  /// Predicted SRAM power of the component (mW), Eq. 10 summed over
  /// positions: predict_tile of the one H+E+P row feature_vector builds
  /// for `ctx`, ranked by this model's own forest bundle.
  [[nodiscard]] double predict(const EvalContext& ctx) const;

  /// predict() of each context, in order.  The batched path is
  /// predict_tile, which AutoPowerModel feeds one shared feature tile.
  [[nodiscard]] std::vector<double> predict_batch(
      std::span<const EvalContext> ctxs) const;

  /// Eq. 9-10 over one feature tile, the one implementation of the
  /// formula.  `tile` holds H+E+P rows, as feature_rows assembles them,
  /// ranked by `forests`, a bundle holding forests() (forests fit without
  /// P read the H+E prefix); cfgs[i] is the configuration row i's H block
  /// came from.  The block shape reads only the component's H parameters
  /// of cfgs[i] (load() rejects a scaling law on any other), and it and
  /// its macro mapping run once per run of rows sharing a cfg pointer.
  /// out[i] depends only on row i.
  void predict_tile(std::span<const arch::HardwareConfig* const> cfgs,
                    const ml::ForestBundle& forests,
                    const ml::ForestTile& tile, std::span<double> out) const;

  /// The GBT sub-models predict_tile reads through its ForestBundle: each
  /// position's read and write models, in position order.
  [[nodiscard]] std::vector<const ml::GBTRegressor*> forests() const;

  /// Predicted block shape of one position (hardware model output),
  /// for the Table I example and the ~0-MAPE hardware-model check.
  [[nodiscard]] BlockPrediction predict_block(
      const arch::HardwareConfig& cfg, std::string_view position) const;

  /// Names of the positions this component owns.
  [[nodiscard]] std::vector<std::string> position_names() const;

  /// The component this model was trained or loaded for.
  [[nodiscard]] arch::ComponentKind component() const noexcept {
    return component_;
  }
  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Serialization (see util/archive.hpp).
  void save(util::ArchiveWriter& out) const;
  void load(util::ArchiveReader& in);

 private:
  struct PositionModel {
    std::string name;
    ScalingPatternModel hardware;
    ml::GBTRegressor read_model;
    ml::GBTRegressor write_model;
    double pin_constant = 0.0;  ///< C of Eq. 10, per block (mW)
  };

  arch::ComponentKind component_{};
  SramModelOptions options_;
  std::vector<PositionModel> positions_;
  ml::ForestBundle bundle_;  // forests(), for predict()
  bool trained_ = false;
};

}  // namespace autopower::core
