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
// predict_rows()/predict_all() run two stages, both rebuilt on fit() and
// load() (the archive format is unchanged):
//   1. a prefix grid table: the longest tree prefix whose distinct
//      (feature, threshold) conditions span at most kMaxGridCells grid
//      cells is compiled into one table of partial sums, and each row
//      starts at the entry its per-feature threshold ranks select;
//   2. a walk of the remaining trees, each mirrored into a padded perfect
//      tree that the dispatched util::simd forest_leaf_add kernel walks
//      tree-major over column-major blocks of samples.
// Both stages are bit-identical to predict().  Every prediction path in
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
  /// stored row-major in `rows`.  Per block of samples: a prefix-table
  /// lookup, then a tree-major walk of the untabled trees on the padded
  /// forest; bit-identical to calling predict() on each row.
  [[nodiscard]] std::vector<double> predict_rows(
      std::span<const double> rows, std::size_t num_features) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_trees() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] double base_score() const noexcept { return base_score_; }
  /// Trees [0, tabled_trees()) are folded into the prefix grid table;
  /// predict_rows walks only the rest.
  [[nodiscard]] std::size_t tabled_trees() const noexcept {
    return tabled_trees_;
  }

  /// Most grid cells (table entries) one forest's prefix table may hold.
  static constexpr std::size_t kMaxGridCells = 2048;

  /// Serialization (see util/archive.hpp).
  void save(util::ArchiveWriter& out) const;
  void load(util::ArchiveReader& in);

 private:
  void rebuild_padded();
  void compile_grid();
  /// Adds lr * leaf(row i) of trees [first, last) to out[i] for i <
  /// `block`, feature f of row i being cols[f * col_stride + i];
  /// `block_rows` holds the same rows row-major and is read only for
  /// trees deeper than the padded layout.
  void walk_trees(const double* cols, std::size_t col_stride,
                  const double* block_rows, std::size_t num_features,
                  std::size_t block, std::size_t first, std::size_t last,
                  double* out) const;

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

  // Prefix grid table over trees [0, tabled_trees_).  Feature f with
  // sorted distinct thresholds T_f contributes rank_f(x) =
  // #{j : !(x_f < T_f[j])} (NaN takes the top rank, as it goes right in
  // the walk), and a row's entry is grid_table_[sum_f stride_f *
  // rank_f(x)]: base_score_ plus each tabled tree's lr * leaf, added in
  // tree order exactly as predict() adds them.  grid_* hold one entry
  // per condition, so the rank sum is one compare-add per condition.
  std::size_t tabled_trees_ = 0;
  std::vector<std::int32_t> grid_feature_;
  std::vector<double> grid_threshold_;
  std::vector<std::uint32_t> grid_stride_;
  std::vector<double> grid_table_;  ///< one entry per cell, >= 1
};

}  // namespace autopower::ml
