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
  /// positions, on the one H+E+P row feature_vector builds for `ctx`, the
  /// activity models ranked and walked by this model's own forest bundle.
  [[nodiscard]] double predict(const EvalContext& ctx) const;

  /// predict() of each context, in order.  AutoPowerModel's batched path
  /// evaluates the activity models once per activity cell and calls
  /// combine().
  [[nodiscard]] std::vector<double> predict_batch(
      std::span<const EvalContext> ctxs) const;

  /// One position's structural terms of one configuration: the hardware
  /// model's block count and the macro mapping of its predicted block.
  struct PositionTerms {
    int count = 0;    ///< blocks
    int per_row = 0;  ///< macros read per access
    double read_energy = 0.0;
    double write_energy = 0.0;
  };
  [[nodiscard]] std::size_t num_positions() const noexcept {
    return positions_.size();
  }
  /// out[p] = position p's terms on `cfg`; out.size() == num_positions().
  /// The block shape reads only the component's H parameters of `cfg`
  /// (load() rejects a scaling law on any other).
  void terms(const arch::HardwareConfig& cfg,
             std::span<PositionTerms> out) const;
  /// Eq. 9-10 summed over positions, floored at 0: the one implementation
  /// of the formula.  activity[2p] and activity[2p + 1] are position p's
  /// read and write frequencies (forests() order).
  [[nodiscard]] double combine(std::span<const PositionTerms> t,
                               std::span<const double> activity) const;

  /// The GBT sub-models, read through a ForestBundle: each position's
  /// read and write models, in position order.
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
