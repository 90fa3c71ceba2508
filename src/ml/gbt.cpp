#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace autopower::ml {

namespace {

// Process-wide instruments, looked up once (thread-safe static init);
// recording through the references is lock-free.  rows/sec is derived
// from the snapshot: rows / (sum of the matching _ns histogram / 1e9).
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

// Rows per column-major block in predict_rows and the table fill.
constexpr std::size_t kBlock = 64;

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
  rebuild_padded();
  compile_grid();
  fitted_ = true;
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
    if (too_deep) continue;  // predict_rows walks it with predict()
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

void GBTRegressor::compile_grid() {
  util::ScopedTimer compile_timer(gbt_metrics().compile_ns);
  // Per feature, the sorted distinct thresholds T_f of the longest prefix
  // whose grid fits the cap.  A NaN threshold (nothing to rank against)
  // or a tree without a padded mirror (the fill below runs the padded
  // kernel) ends the prefix.  Equality merges -0.0 with +0.0, which
  // every x compares against alike.
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
  tabled_trees_ = prefix;
  gbt_metrics().tabled_trees.add(prefix);
  gbt_metrics().walked_trees.add(trees_.size() - prefix);

  // One representative row per cell, column-major over the whole table,
  // feature 0 varying fastest.  Rank 0 maps to -inf and rank r to
  // T_f[r - 1], which has exactly rank r because T_f is strictly
  // increasing; when T_f[0] is -inf, rank 0 is unreachable and its entry
  // is never read.  A feature no tabled condition tests has rank 0 in
  // every cell; only padding slots read it, and the leaf slots below a
  // padding slot all hold the same weight.
  const std::size_t cells = cells_spanned();
  std::vector<double> cols(n_cols * cells);
  grid_feature_.clear();
  grid_threshold_.clear();
  grid_stride_.clear();
  std::size_t stride = 1;
  for (std::size_t f = 0; f < n_cols; ++f) {
    const auto& tf = thresholds[f];
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const std::size_t rank = cell / stride % (tf.size() + 1);
      cols[f * cells + cell] = rank == 0
                                   ? -std::numeric_limits<double>::infinity()
                                   : tf[rank - 1];
    }
    for (const double t : tf) {
      grid_feature_.push_back(static_cast<std::int32_t>(f));
      grid_threshold_.push_back(t);
      grid_stride_.push_back(static_cast<std::uint32_t>(stride));
    }
    stride *= tf.size() + 1;
  }
  grid_table_.assign(cells, base_score_);
  walk_trees(cols.data(), cells, nullptr, 0, cells, 0, prefix,
             grid_table_.data());
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
  rebuild_padded();
  compile_grid();
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
  AP_REQUIRE(max_feature_ < static_cast<int>(num_features),
             "feature arity mismatch in GBT predict_rows");

  const std::size_t count = rows.size() / num_features;
  util::ScopedTimer predict_timer(gbt_metrics().predict_ns);
  gbt_metrics().predict_rows.add(count);
  std::vector<double> out(count);

  // Per block of samples: copy the block once into column-major scratch,
  // start each row at its prefix-table entry, then walk the untabled
  // trees.  The per-row accumulation order — base score, then tree 0,
  // 1, ... with one mul-then-add per tree — matches predict() exactly,
  // so every tier is bit-identical to it.
  //
  // Column scratch, neither allocated nor zero-filled per call: each block
  // writes rows [0, block) of every column before anything reads them,
  // and nothing reads other rows.  Every power-model arity (<= 28) fits
  // the stack buffer; wider rows fall back to the heap.  (A persistent
  // thread_local heap buffer would pin the heap between the large batch
  // allocations of a trace and raise its peak RSS.)
  constexpr std::size_t kStackColumns = 32;
  double stack_cols[kStackColumns * kBlock];
  std::vector<double> heap_cols;
  double* cols = stack_cols;
  const auto n_cols = static_cast<std::size_t>(max_feature_ + 1);
  if (n_cols > kStackColumns) {
    heap_cols.resize(n_cols * kBlock);
    cols = heap_cols.data();
  }

  for (std::size_t begin = 0; begin < count; begin += kBlock) {
    const std::size_t block = std::min(kBlock, count - begin);
    const double* const block_rows = rows.data() + begin * num_features;
    // Row-major copy order: reads stream sequentially and the cols
    // buffer stays L1-resident, which beats a per-feature strided-gather
    // pass here (each gather lane would touch its own cache line at
    // typical feature arities).
    for (std::size_t i = 0; i < block; ++i) {
      const double* const r = block_rows + i * num_features;
      for (int f = 0; f <= max_feature_; ++f) {
        cols[static_cast<std::size_t>(f) * kBlock + i] = r[f];
      }
    }
    // Table index: one compare-add per condition, arithmetic on the
    // comparison rather than a select so the loop stays branch-free
    // (a ternary here compiled to branchy scalar code).
    std::uint32_t idx[kBlock] = {};
    for (std::size_t c = 0; c < grid_feature_.size(); ++c) {
      const double* const x =
          cols + static_cast<std::size_t>(grid_feature_[c]) * kBlock;
      const double t = grid_threshold_[c];
      const std::uint32_t stride = grid_stride_[c];
      for (std::size_t i = 0; i < block; ++i) {
        idx[i] += stride * static_cast<std::uint32_t>(!(x[i] < t));
      }
    }
    for (std::size_t i = 0; i < block; ++i) {
      out[begin + i] = grid_table_[idx[i]];
    }
    walk_trees(cols, kBlock, block_rows, num_features, block, tabled_trees_,
               trees_.size(), out.data() + begin);
  }

  if (options_.nonnegative_prediction) {
    for (double& v : out) v = std::max(v, 0.0);
  }
  return out;
}

void GBTRegressor::walk_trees(const double* cols, std::size_t col_stride,
                              const double* block_rows,
                              std::size_t num_features, std::size_t block,
                              std::size_t first, std::size_t last,
                              double* out) const {
  const double lr = options_.learning_rate;
  const auto& kt = util::simd::kernels();
  for (std::size_t t = first; t < last; ++t) {
    const PaddedTree& pad = pad_trees_[t];
    if (pad.depth < 0) {
      // Deeper than the padded layout: the scalar oracle, per row.  Never
      // reached from the table fill, whose prefix stops before such trees.
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
    kt.forest_leaf_add(view, cols, col_stride, block, lr, out);
  }
}

}  // namespace autopower::ml
