// Gradient-boosted regression trees — the "XGBoost" of this repository.
//
// The paper uses XGBoost for every activity-style sub-model (effective
// active rate, SRAM read/write frequency, register activity, combinational
// variation) and as the regressor inside the McPAT-Calib baselines.  This is
// a from-scratch implementation of the same algorithm for squared-error
// loss: second-order boosting with shrinkage, L2 leaf regularisation and
// gamma split cost.  Deterministic — no row/column subsampling.
//
// predict() pointer-walks each tree's nodes for one sample.  Batched
// prediction runs two stages through ml::ForestBundle (forest_bundle.hpp):
//   1. a prefix grid table: fit() and load() fold the longest tree prefix
//      whose (feature, threshold) conditions span at most kMaxGridCells
//      grid cells into one table of partial sums (the archive format is
//      unchanged), and each row starts at the entry its per-feature
//      threshold ranks select;
//   2. a walk of the remaining trees, each mirrored into a padded perfect
//      tree that the dispatched util::simd forest_leaf_add kernel walks
//      tree-major over column-major blocks of samples.
// Both stages are bit-identical to predict().  Every prediction path in
// src/core goes through ForestBundle; predict_rows() is a bundle of one
// forest, and the scalar predict() stays as the reference the
// differential tests compare both against.  trees() exposes the fitted
// trees, so a caller can rank rows against every threshold they test
// (AutoPowerModel's activity cells).
#pragma once

#include <cstdint>
#include <memory>
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

class ForestBundle;

/// A compiled prefix grid table of one forest (GBTRegressor::
/// compile_table).  Feature f with sorted distinct thresholds T_f has rank
/// rank_f(x) = #{j : !(x_f < T_f[j])} (NaN takes the top rank, as it goes
/// right in the walk), and a row's entry is cells[sum_f stride_f *
/// rank_f(x)] with stride_f = prod_{g<f} (|T_g| + 1): base score plus
/// each tabled tree's lr * leaf, added in tree order exactly as predict()
/// adds them.
struct GridTable {
  std::size_t tabled_trees = 0;  ///< trees [0, tabled_trees) are tabled
  /// Per feature (up to the forest's highest), T_f of the tabled trees'
  /// conditions; empty for an untested feature.
  std::vector<std::vector<double>> thresholds;
  std::vector<double> cells;  ///< one entry per grid cell, >= 1
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
  /// stored row-major in `rows`: a ForestBundle of this one forest's
  /// fit-time table.  Per block of samples: a prefix-table lookup, then a
  /// tree-major walk of the untabled trees on the padded forest;
  /// bit-identical to calling predict() on each row.
  [[nodiscard]] std::vector<double> predict_rows(
      std::span<const double> rows, std::size_t num_features) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_trees() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] double base_score() const noexcept { return base_score_; }
  /// The fitted trees, in boosting order.
  [[nodiscard]] std::span<const RegressionTree> trees() const noexcept {
    return trees_;
  }
  /// Trees [0, tabled_trees()) are folded into the fit-time prefix grid
  /// table; predict_rows walks only the rest.
  [[nodiscard]] std::size_t tabled_trees() const noexcept {
    return table_ ? table_->tabled_trees : 0;
  }

  /// Most grid cells (table entries) one forest's prefix table may hold.
  static constexpr std::size_t kMaxGridCells = 2048;

  /// Serialization (see util/archive.hpp).
  void save(util::ArchiveWriter& out) const;
  void load(util::ArchiveReader& in);

 private:
  friend class ForestBundle;

  void rebuild_padded();
  /// rebuild_padded() plus the fit-time table.
  void compile();
  /// The fit-time table: the longest tree prefix whose conditions span at
  /// most kMaxGridCells cells (stopping at a NaN threshold or a tree
  /// deeper than the padded layout), filled tree-major by the padded walk
  /// in tree order, so every entry is bit-identical to predict() of any
  /// row it stands for.
  [[nodiscard]] std::shared_ptr<const GridTable> compile_table() const;
  /// Adds lr * leaf(row i) of trees [first, last) to out[i] for i <
  /// `block`, feature f of row i being cols[f * col_stride + i];
  /// `block_rows` holds the same rows row-major and is read only for
  /// trees deeper than the padded layout.  The vector tier walks padded
  /// trees over `lanes` >= `block` rows: cols and out must hold the
  /// padding rows [block, lanes), whose sums are meaningless.
  void walk_trees(const double* cols, std::size_t col_stride,
                  const double* block_rows, std::size_t num_features,
                  std::size_t block, std::size_t lanes, std::size_t first,
                  std::size_t last, double* out) const;

  GbtOptions options_;
  std::vector<RegressionTree> trees_;
  double base_score_ = 0.0;
  bool fitted_ = false;

  // Padded perfect-tree mirror of trees_ (util::simd::PaddedTreeView): per
  // tree of depth d, 2^d - 1 interior slots in breadth-first order plus
  // 2^d leaf slots, with each real leaf's weight replicated across every
  // leaf slot of its padded subtree.  A tree deeper than
  // simd::kMaxPaddedDepth gets depth -1 and no slots; batched predict
  // walks it with RegressionTree::predict instead.
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

  /// Fit-time prefix grid table.  Immutable and shared
  /// by copies of this forest, so a ForestBundle can name the forest by
  /// it whichever copy it is handed.
  std::shared_ptr<const GridTable> table_;
};

}  // namespace autopower::ml
