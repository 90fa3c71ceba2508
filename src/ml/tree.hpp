// Regression tree used as the weak learner inside GBTRegressor.
//
// Follows the XGBoost formulation: each sample carries a gradient/hessian
// pair; leaves take weight -G/(H + lambda); splits maximise the second-order
// gain with gamma as the split cost.  Split finding is exact greedy over
// sorted feature values.
//
// Two builders produce bit-identical trees:
//   * the presorted fast path (default) computes one sorted column index
//     per feature once per fit(), then scans each node's members in that
//     presorted order through a node-membership mask, gathering grad/hess
//     into contiguous scratch buffers — O(F n) per node;
//   * the reference path re-sorts the node's sample list per feature per
//     node — O(F n log n) per node.  It is retained (TreeOptions::
//     reference_split_search) so property tests and benchmarks can verify
//     the fast path split-for-split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/archive.hpp"

namespace autopower::ml {

/// Hyper-parameters for a single boosted tree.
struct TreeOptions {
  int max_depth = 3;
  double lambda = 1.0;            ///< L2 on leaf weights.
  double gamma = 0.0;             ///< Minimum gain to split.
  double min_child_weight = 1.0;  ///< Minimum hessian sum per child.
  /// Use the per-node re-sorting reference split search instead of the
  /// presorted fast path.  Both produce bit-identical trees; the reference
  /// exists for the property tests and bench_train_throughput self-checks.
  bool reference_split_search = false;
};

/// A fitted regression tree (flat node array, index 0 is the root).
class RegressionTree {
 public:
  struct Node {
    int feature = -1;        ///< -1 for leaves
    double threshold = 0.0;  ///< go left if x[feature] < threshold
    int left = -1;
    int right = -1;
    double weight = 0.0;  ///< leaf value
  };

  /// Fits the tree to gradients/hessians over the dataset's features.
  /// `grad` and `hess` must have `data.size()` entries.
  void fit(const Dataset& data, std::span<const double> grad,
           std::span<const double> hess, const TreeOptions& options);

  /// Returns the leaf weight for one feature vector.
  [[nodiscard]] double predict(std::span<const double> features) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// Deepest node level (the root is level 0).
  [[nodiscard]] int depth() const noexcept { return depth_; }
  /// The nodes, root at index 0: each is reachable from the root exactly
  /// once and interior nodes have both children.  GBTRegressor mirrors
  /// them into its padded inference layout.
  [[nodiscard]] std::span<const Node> nodes() const noexcept {
    return nodes_;
  }

  /// Serialization (see util/archive.hpp).  load() rejects a node graph
  /// that is not a tree rooted at node 0, and a `tree.depth` that
  /// disagrees with it, with util::InvalidArgument.
  void save(util::ArchiveWriter& out) const;
  void load(util::ArchiveReader& in);

 private:
  struct PresortWorkspace;  // defined in tree.cpp

  int build_reference(const Dataset& data, std::span<const double> grad,
                      std::span<const double> hess,
                      std::vector<std::size_t>& samples, int depth,
                      const TreeOptions& options);

  int build_presorted(const Dataset& data, std::span<const double> grad,
                      std::span<const double> hess,
                      std::vector<std::uint32_t>& samples, int depth,
                      const TreeOptions& options, PresortWorkspace& ws);

  std::vector<Node> nodes_;
  int depth_ = 0;
};

}  // namespace autopower::ml
