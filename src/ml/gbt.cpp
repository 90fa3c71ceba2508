#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/forest_bundle.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace autopower::ml {

namespace {

// Process-wide instruments, looked up once (thread-safe static init);
// recording through the references is lock-free.  rows/sec is derived
// from the snapshot: rows / (sum of the matching _ns histogram / 1e9).
// ForestBundle::predict records predict_ns and predict_rows; they are
// registered here too, so every snapshot taken after a fit or load lists
// the whole ml.gbt family.
struct GbtMetrics {
  util::Histogram& fit_ns;
  util::Counter& fit_rows;
  util::Histogram& predict_ns;
  util::Counter& predict_rows;
  util::Histogram& compile_ns;
  util::Counter& tabled_trees;
  util::Counter& walked_trees;
};

GbtMetrics& gbt_metrics() {
  auto& r = util::MetricsRegistry::global();
  static GbtMetrics m{r.histogram("ml.gbt.fit_ns"),
                      r.counter("ml.gbt.fit_rows"),
                      r.histogram("ml.gbt.predict_ns"),
                      r.counter("ml.gbt.predict_rows"),
                      r.histogram("ml.gbt.compile_ns"),
                      r.counter("ml.gbt.tabled_trees"),
                      r.counter("ml.gbt.walked_trees")};
  return m;
}

// Rows predict_rows copies and ranks at a time.
constexpr std::size_t kChunkRows = 512;

}  // namespace

void GBTRegressor::fit(const Dataset& data) {
  AP_REQUIRE(!data.empty(), "cannot fit GBT on empty dataset");
  util::ScopedTimer fit_timer(gbt_metrics().fit_ns);
  gbt_metrics().fit_rows.add(data.size());
  trees_.clear();

  const std::size_t n = data.size();
  base_score_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) base_score_ += data.target(i);
  base_score_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_score_);
  std::vector<double> grad(n);
  const std::vector<double> hess(n, 1.0);  // squared loss: constant hessian

  for (int round = 0; round < options_.num_rounds; ++round) {
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = pred[i] - data.target(i);  // d/dp 0.5(p - y)^2
      sq += grad[i] * grad[i];
    }
    if (sq / static_cast<double>(n) < 1e-16) break;  // already exact

    RegressionTree tree;
    tree.fit(data, grad, hess, options_.tree);
    if (tree.node_count() == 1 && std::abs(tree.predict(data.features(0))) <
                                      1e-15) {
      break;  // no useful split and zero correction: converged
    }
    for (std::size_t i = 0; i < n; ++i) {
      pred[i] += options_.learning_rate * tree.predict(data.features(i));
    }
    trees_.push_back(std::move(tree));
  }
  compile();
  fitted_ = true;
}

void GBTRegressor::compile() {
  rebuild_padded();
  table_ = compile_table();
  gbt_metrics().tabled_trees.add(table_->tabled_trees);
  gbt_metrics().walked_trees.add(trees_.size() - table_->tabled_trees);
}

void GBTRegressor::rebuild_padded() {
  pad_trees_.clear();
  pad_feature_.clear();
  pad_threshold_.clear();
  pad_weight_.clear();
  pad_trees_.reserve(trees_.size());
  max_feature_ = -1;

  for (const auto& tree : trees_) {
    const auto nodes = tree.nodes();
    for (const auto& node : nodes) {
      max_feature_ = std::max(max_feature_, node.feature);
    }
    const std::int32_t depth = tree.depth();
    const std::size_t node_off = pad_feature_.size();
    const std::size_t leaf_off = pad_weight_.size();
    const bool too_deep = depth > util::simd::kMaxPaddedDepth;
    pad_trees_.push_back({too_deep ? -1 : depth, node_off, leaf_off});
    if (too_deep) continue;  // batched predict walks it with predict()
    const std::size_t interior = (std::size_t{1} << depth) - 1;
    const std::size_t leaves = std::size_t{1} << depth;
    pad_feature_.resize(node_off + interior, 0);
    pad_threshold_.resize(node_off + interior, 0.0);
    pad_weight_.resize(leaf_off + leaves, 0.0);

    // Breadth-first fill: slot s's children are 2s+1 / 2s+2.  A real
    // leaf reached above the bottom level is carried down through its
    // whole padded subtree (feature 0, threshold 0 — the walk direction
    // is irrelevant once every leaf slot below holds the same weight).
    struct Item {
      std::size_t slot;
      int node;
    };
    std::vector<Item> stack{{0, 0}};
    while (!stack.empty()) {
      const Item item = stack.back();
      stack.pop_back();
      const auto& node = nodes[static_cast<std::size_t>(item.node)];
      const bool is_leaf = node.feature < 0;
      if (item.slot >= interior) {
        AP_ASSERT(is_leaf);  // depth is the deepest node level
        pad_weight_[leaf_off + (item.slot - interior)] = node.weight;
        continue;
      }
      if (is_leaf) {
        stack.push_back({2 * item.slot + 1, item.node});
        stack.push_back({2 * item.slot + 2, item.node});
      } else {
        pad_feature_[node_off + item.slot] = node.feature;
        pad_threshold_[node_off + item.slot] = node.threshold;
        stack.push_back({2 * item.slot + 1, node.left});
        stack.push_back({2 * item.slot + 2, node.right});
      }
    }
  }
}

std::shared_ptr<const GridTable> GBTRegressor::compile_table() const {
  util::ScopedTimer compile_timer(gbt_metrics().compile_ns);
  // Per feature, the sorted distinct thresholds T_f of the longest prefix
  // whose grid fits the cap.  A NaN threshold (nothing to rank against)
  // or a tree without a padded mirror (the fill below runs the padded
  // kernel) ends the prefix.  Equality merges -0.0 with +0.0, which every
  // x compares against alike.
  const auto n_cols = static_cast<std::size_t>(max_feature_ + 1);
  std::vector<std::vector<double>> thresholds(n_cols);
  const auto add_tree = [&](std::size_t t) {
    for (const auto& node : trees_[t].nodes()) {
      if (node.feature < 0) continue;
      if (std::isnan(node.threshold)) return false;
      auto& tf = thresholds[static_cast<std::size_t>(node.feature)];
      const auto at = std::lower_bound(tf.begin(), tf.end(), node.threshold);
      if (at == tf.end() || *at != node.threshold) {
        tf.insert(at, node.threshold);
      }
    }
    return true;
  };
  const auto cells_spanned = [&] {
    std::size_t cells = 1;  // saturates past the cap
    for (const auto& tf : thresholds) {
      cells = std::min(cells * (tf.size() + 1), kMaxGridCells + 1);
    }
    return cells;
  };
  std::size_t prefix = 0;
  while (prefix < trees_.size() && pad_trees_[prefix].depth >= 0 &&
         add_tree(prefix) && cells_spanned() <= kMaxGridCells) {
    ++prefix;
  }
  if (prefix < trees_.size()) {  // drop what the rejected tree added
    for (auto& tf : thresholds) tf.clear();
    for (std::size_t t = 0; t < prefix; ++t) add_tree(t);
  }
  const std::size_t cells = cells_spanned();

  // One representative row per cell, column-major over the whole table,
  // feature 0 varying fastest.  Rank 0 maps to -inf and rank r to
  // T_f[r - 1], which has exactly rank r because T_f is strictly
  // increasing; when T_f[0] is -inf, rank 0 is unreachable and its entry
  // is never read.  A feature no tabled condition tests has rank 0 in
  // every cell; only padding slots read it, and they cannot change a leaf.
  auto table = std::make_shared<GridTable>();
  table->tabled_trees = prefix;
  std::vector<double> cols(n_cols * cells);
  std::size_t stride = 1;
  for (std::size_t f = 0; f < n_cols; ++f) {
    double* const col = cols.data() + f * cells;
    const auto& tf = thresholds[f];
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const std::size_t rank = cell / stride % (tf.size() + 1);
      col[cell] = rank == 0 ? -std::numeric_limits<double>::infinity()
                            : tf[rank - 1];
    }
    stride *= tf.size() + 1;
  }
  table->cells.assign(cells, base_score_);
  walk_trees(cols.data(), cells, nullptr, 0, cells, cells, 0, prefix,
             table->cells.data());
  table->thresholds = std::move(thresholds);
  return table;
}

void GBTRegressor::save(util::ArchiveWriter& out) const {
  out.write("gbt.rounds", static_cast<std::int64_t>(options_.num_rounds));
  out.write("gbt.lr", options_.learning_rate);
  out.write("gbt.max_depth",
            static_cast<std::int64_t>(options_.tree.max_depth));
  out.write("gbt.lambda", options_.tree.lambda);
  out.write("gbt.gamma", options_.tree.gamma);
  out.write("gbt.min_child_weight", options_.tree.min_child_weight);
  out.write("gbt.nonneg", options_.nonnegative_prediction);
  out.write("gbt.fitted", fitted_);
  out.write("gbt.base_score", base_score_);
  out.write("gbt.num_trees", static_cast<std::int64_t>(trees_.size()));
  for (const auto& tree : trees_) tree.save(out);
}

void GBTRegressor::load(util::ArchiveReader& in) {
  options_.num_rounds = static_cast<int>(in.read_int("gbt.rounds"));
  options_.learning_rate = in.read_double("gbt.lr");
  options_.tree.max_depth = static_cast<int>(in.read_int("gbt.max_depth"));
  options_.tree.lambda = in.read_double("gbt.lambda");
  options_.tree.gamma = in.read_double("gbt.gamma");
  options_.tree.min_child_weight = in.read_double("gbt.min_child_weight");
  options_.nonnegative_prediction = in.read_bool("gbt.nonneg");
  fitted_ = in.read_bool("gbt.fitted");
  base_score_ = in.read_double("gbt.base_score");
  const auto n = in.read_int("gbt.num_trees");
  AP_REQUIRE(n >= 0 && n < (1 << 20), "corrupt GBT archive");
  trees_.assign(static_cast<std::size_t>(n), RegressionTree{});
  for (auto& tree : trees_) tree.load(in);
  compile();
}

double GBTRegressor::predict(std::span<const double> features) const {
  if (!fitted_) throw util::NotFitted("GBTRegressor::predict before fit");
  double acc = base_score_;
  for (const auto& tree : trees_) {
    acc += options_.learning_rate * tree.predict(features);
  }
  if (options_.nonnegative_prediction) acc = std::max(acc, 0.0);
  return acc;
}

std::vector<double> GBTRegressor::predict_all(const Dataset& data) const {
  if (data.empty()) return {};
  return predict_rows(data.row_major_features(), data.num_features());
}

std::vector<double> GBTRegressor::predict_rows(
    std::span<const double> rows, std::size_t num_features) const {
  if (!fitted_) throw util::NotFitted("GBTRegressor::predict_rows before fit");
  AP_REQUIRE(num_features > 0 && rows.size() % num_features == 0,
             "row buffer is not a multiple of the feature arity");
  const std::size_t count = rows.size() / num_features;
  std::vector<double> out(count);
  const GBTRegressor* const self = this;
  const ForestBundle bundle({&self, 1});
  ForestTile tile;
  for (std::size_t begin = 0; begin < count; begin += kChunkRows) {
    const std::size_t n = std::min(kChunkRows, count - begin);
    bundle.rank(rows.subspan(begin * num_features, n * num_features),
                num_features, tile);
    bundle.predict(*this, tile, {out.data() + begin, n});
  }
  return out;
}

void GBTRegressor::walk_trees(const double* cols, std::size_t col_stride,
                              const double* block_rows,
                              std::size_t num_features, std::size_t block,
                              std::size_t lanes, std::size_t first,
                              std::size_t last, double* out) const {
  const double lr = options_.learning_rate;
  const auto& kt = util::simd::kernels();
  // Padding rows only pay off where rows are walked in vector groups.
  if (kt.tier == util::simd::Tier::kScalar) lanes = block;
  for (std::size_t t = first; t < last; ++t) {
    const PaddedTree& pad = pad_trees_[t];
    if (pad.depth < 0) {
      // Deeper than the padded layout: the scalar oracle, per row.  Never
      // reached from a table fill, whose prefix stops before such trees.
      AP_ASSERT(block_rows != nullptr);
      for (std::size_t i = 0; i < block; ++i) {
        out[i] += lr * trees_[t].predict(
                           {block_rows + i * num_features, num_features});
      }
      continue;
    }
    const util::simd::PaddedTreeView view{
        pad_feature_.data() + pad.node_off,
        pad_threshold_.data() + pad.node_off,
        pad_weight_.data() + pad.leaf_off,
        pad.depth,
    };
    kt.forest_leaf_add(view, cols, col_stride, lanes, lr, out);
  }
}

}  // namespace autopower::ml
