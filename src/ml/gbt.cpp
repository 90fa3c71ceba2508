#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>

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
};

GbtMetrics& gbt_metrics() {
  auto& r = util::MetricsRegistry::global();
  static GbtMetrics m{r.histogram("ml.gbt.fit_ns"),
                      r.counter("ml.gbt.fit_rows"),
                      r.histogram("ml.gbt.predict_ns"),
                      r.counter("ml.gbt.predict_rows")};
  return m;
}

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
  std::vector<double> out(count, base_score_);

  // Tree-major over blocks of samples: each block is copied once into
  // column-major scratch, then every padded tree runs through the
  // dispatched forest_leaf_add kernel, which evaluates all of a tree's
  // conditions with contiguous loads across rows.  The per-row
  // accumulation order — tree 0, 1, ... with one mul-then-add per tree —
  // matches predict() exactly, so every tier is bit-identical to it.
  constexpr std::size_t kBlock = 64;
  const double lr = options_.learning_rate;
  const auto& kt = util::simd::kernels();
  // Column scratch, neither allocated nor zero-filled per call: each block
  // writes rows [0, block) of every column before the kernel reads them,
  // and the kernel reads no other rows.  Every power-model arity (<= 28)
  // fits the stack buffer; wider rows fall back to the heap.  (A
  // persistent thread_local heap buffer would pin the heap between the
  // large batch allocations of a trace and raise its peak RSS.)
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
    for (std::size_t t = 0; t < pad_trees_.size(); ++t) {
      const PaddedTree& pad = pad_trees_[t];
      if (pad.depth < 0) {
        // Deeper than the padded layout: the scalar oracle, per row.
        for (std::size_t i = 0; i < block; ++i) {
          out[begin + i] +=
              lr * trees_[t].predict(
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
      kt.forest_leaf_add(view, cols, kBlock, block, lr, out.data() + begin);
    }
  }

  if (options_.nonnegative_prediction) {
    for (double& v : out) v = std::max(v, 0.0);
  }
  return out;
}

}  // namespace autopower::ml
