// Gradient-boosted regression trees — the "XGBoost" of this repository.
//
// The paper uses XGBoost for every activity-style sub-model (effective
// active rate, SRAM read/write frequency, register activity, combinational
// variation) and as the regressor inside the McPAT-Calib baselines.  This is
// a from-scratch implementation of the same algorithm for squared-error
// loss: second-order boosting with shrinkage, L2 leaf regularisation and
// gamma split cost.  Deterministic — no row/column subsampling.
//
// Inference comes in two layouts: predict() pointer-walks the per-tree
// Node arrays for one sample, while predict_rows()/predict_all() walk a
// flattened structure-of-arrays forest (feature[] / threshold[] / left[] /
// right[] / weight[], rebuilt on fit() and load()) tree-major over blocks
// of samples.  Both are bit-identical.  Every prediction path in src/core
// goes through predict_rows; the scalar predict() stays as the reference
// the differential tests compare predict_rows against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/tree.hpp"

namespace autopower::ml {

/// Hyper-parameters for GBTRegressor.
struct GbtOptions {
  int num_rounds = 120;
  double learning_rate = 0.12;
  TreeOptions tree;
  /// If true, predictions are clamped to be non-negative (rates, powers).
  bool nonnegative_prediction = false;
};

/// XGBoost-style gradient boosted trees for squared-error regression.
class GBTRegressor {
 public:
  GBTRegressor() = default;
  explicit GBTRegressor(GbtOptions options) : options_(options) {}

  /// Fits the ensemble; base score is the target mean.
  void fit(const Dataset& data);

  /// Predicts one sample; throws util::NotFitted before fit().
  [[nodiscard]] double predict(std::span<const double> features) const;

  /// Predicts every sample in a dataset (batched, flattened-forest path).
  [[nodiscard]] std::vector<double> predict_all(const Dataset& data) const;

  /// Batched prediction over `rows.size() / num_features` feature vectors
  /// stored row-major in `rows`.  Iterates tree-major over blocks of
  /// samples on the flattened SoA forest; bit-identical to calling
  /// predict() on each row.
  [[nodiscard]] std::vector<double> predict_rows(
      std::span<const double> rows, std::size_t num_features) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_trees() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] double base_score() const noexcept { return base_score_; }

  /// Serialization (see util/archive.hpp).
  void save(util::ArchiveWriter& out) const;
  void load(util::ArchiveReader& in);

 private:
  void rebuild_flat();
  void rebuild_padded();

  GbtOptions options_;
  std::vector<RegressionTree> trees_;
  double base_score_ = 0.0;
  bool fitted_ = false;

  // Flattened SoA forest (rebuilt on fit()/load()): every tree's nodes
  // concatenated, child links rebased to absolute indices.  Leaves are
  // made self-looping (left = right = own index, feature = 0) so a block
  // of samples can be advanced level-synchronously for exactly the tree's
  // depth with no per-sample termination test — the traversal becomes
  // independent work across samples instead of one serial load chain each.
  std::vector<std::int32_t> flat_feature_;
  std::vector<double> flat_threshold_;
  std::vector<std::int32_t> flat_left_;
  std::vector<std::int32_t> flat_right_;
  std::vector<double> flat_weight_;
  std::vector<std::int32_t> flat_roots_;  ///< root node index per tree
  std::vector<std::int32_t> flat_depth_;  ///< levels to walk per tree
  int max_feature_ = -1;  ///< highest feature index any node tests

  // Padded perfect-tree mirror of the flat forest, consumed by the SIMD
  // forest_leaf_add kernel (util/simd.hpp): per tree of depth d, 2^d - 1
  // interior slots in breadth-first order plus 2^d leaf slots, with each
  // real leaf's weight replicated across every leaf slot of its padded
  // subtree.  Trees deeper than simd::kMaxPaddedDepth get pad_depth_ -1
  // and fall back to the scalar level-synchronous walk per tree.
  std::vector<std::int32_t> pad_depth_;      ///< padded depth, -1 = too deep
  std::vector<std::size_t> pad_node_off_;    ///< per-tree interior offset
  std::vector<std::size_t> pad_leaf_off_;    ///< per-tree leaf offset
  std::vector<std::int32_t> pad_feature_;
  std::vector<double> pad_threshold_;
  std::vector<double> pad_weight_;
};

}  // namespace autopower::ml
