// Gradient-boosted regression trees — the "XGBoost" of this repository.
//
// The paper uses XGBoost for every activity-style sub-model (effective
// active rate, SRAM read/write frequency, register activity, combinational
// variation) and as the regressor inside the McPAT-Calib baselines.  This is
// a from-scratch implementation of the same algorithm for squared-error
// loss: second-order boosting with shrinkage, L2 leaf regularisation and
// gamma split cost.  Deterministic — no row/column subsampling.
//
// predict() pointer-walks each tree's nodes for one sample.  The batched
// predict_rows()/predict_all() use one layout: every tree mirrored into a
// padded perfect tree (rebuilt on fit() and load()) that the dispatched
// util::simd forest_leaf_add kernel walks tree-major over column-major
// blocks of samples.  Both are bit-identical.  Every prediction path in
// src/core goes through predict_rows; the scalar predict() stays as the
// reference the differential tests compare predict_rows against.
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

  /// Predicts every sample in a dataset (batched, padded-forest path).
  [[nodiscard]] std::vector<double> predict_all(const Dataset& data) const;

  /// Batched prediction over `rows.size() / num_features` feature vectors
  /// stored row-major in `rows`.  Iterates tree-major over blocks of
  /// samples on the padded forest; bit-identical to calling predict() on
  /// each row.
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
  void rebuild_padded();

  GbtOptions options_;
  std::vector<RegressionTree> trees_;
  double base_score_ = 0.0;
  bool fitted_ = false;

  // Padded perfect-tree mirror of trees_ (util::simd::PaddedTreeView): per
  // tree of depth d, 2^d - 1 interior slots in breadth-first order plus
  // 2^d leaf slots, with each real leaf's weight replicated across every
  // leaf slot of its padded subtree.  A tree deeper than
  // simd::kMaxPaddedDepth gets depth -1 and no slots; predict_rows walks
  // it with RegressionTree::predict instead.
  struct PaddedTree {
    std::int32_t depth;    ///< padded depth, -1 = too deep
    std::size_t node_off;  ///< offset into pad_feature_/pad_threshold_
    std::size_t leaf_off;  ///< offset into pad_weight_
  };
  std::vector<PaddedTree> pad_trees_;
  std::vector<std::int32_t> pad_feature_;
  std::vector<double> pad_threshold_;
  std::vector<double> pad_weight_;
  int max_feature_ = -1;  ///< highest feature index any node tests
};

}  // namespace autopower::ml
