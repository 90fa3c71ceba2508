#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.hpp"

namespace autopower::ml {

namespace {

double leaf_weight(double grad_sum, double hess_sum, double lambda) {
  return -grad_sum / (hess_sum + lambda);
}

double score(double grad_sum, double hess_sum, double lambda) {
  return grad_sum * grad_sum / (hess_sum + lambda);
}

}  // namespace

/// Per-fit scratch for the presorted builder: one sorted column index (and
/// its value column) per feature, computed once, plus per-node gather
/// buffers reused across every node of the tree.
struct RegressionTree::PresortWorkspace {
  std::size_t n = 0;
  // Column-major: sorted_idx[f * n + k] is the index of the k-th smallest
  // sample under feature f, ties broken by sample index — the same
  // (value, index) order the reference per-node sort uses.
  std::vector<std::uint32_t> sorted_idx;
  std::vector<double> sorted_val;  ///< feature values, parallel to sorted_idx
  std::vector<unsigned char> in_node;  ///< node-membership mask
  // Contiguous per-node gathers (value / grad / hess in presorted order).
  std::vector<double> val;
  std::vector<double> grad;
  std::vector<double> hess;
};

void RegressionTree::fit(const Dataset& data, std::span<const double> grad,
                         std::span<const double> hess,
                         const TreeOptions& options) {
  AP_REQUIRE(grad.size() == data.size() && hess.size() == data.size(),
             "gradient arity does not match dataset");
  AP_REQUIRE(!data.empty(), "cannot fit tree on empty dataset");
  nodes_.clear();
  depth_ = 0;

  if (options.reference_split_search) {
    std::vector<std::size_t> samples(data.size());
    std::iota(samples.begin(), samples.end(), std::size_t{0});
    build_reference(data, grad, hess, samples, 0, options);
    return;
  }

  const std::size_t n = data.size();
  const std::size_t num_features = data.num_features();
  // Sample indices are stored as uint32 (the presorted index columns and
  // every node's sample list); the signed int32 bound keeps them in range.
  AP_REQUIRE(n <= static_cast<std::size_t>(
                      std::numeric_limits<std::int32_t>::max()),
             "dataset too large for the presorted tree builder");

  PresortWorkspace ws;
  ws.n = n;
  ws.sorted_idx.resize(num_features * n);
  ws.sorted_val.resize(num_features * n);
  ws.in_node.assign(n, 0);
  ws.val.resize(n);
  ws.grad.resize(n);
  ws.hess.resize(n);

  std::vector<double> col(n);
  std::vector<std::uint32_t> order(n);
  const std::span<const double> all = data.row_major_features();
  for (std::size_t f = 0; f < num_features; ++f) {
    for (std::size_t i = 0; i < n; ++i) col[i] = all[i * num_features + f];
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return col[a] < col[b] || (col[a] == col[b] && a < b);
              });
    for (std::size_t k = 0; k < n; ++k) {
      ws.sorted_idx[f * n + k] = order[k];
      ws.sorted_val[f * n + k] = col[order[k]];
    }
  }

  std::vector<std::uint32_t> samples(n);
  std::iota(samples.begin(), samples.end(), std::uint32_t{0});
  build_presorted(data, grad, hess, samples, 0, options, ws);
}

int RegressionTree::build_presorted(const Dataset& data,
                                    std::span<const double> grad,
                                    std::span<const double> hess,
                                    std::vector<std::uint32_t>& samples,
                                    int depth, const TreeOptions& options,
                                    PresortWorkspace& ws) {
  depth_ = std::max(depth_, depth);
  double grad_sum = 0.0;
  double hess_sum = 0.0;
  for (std::uint32_t i : samples) {
    grad_sum += grad[i];
    hess_sum += hess[i];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_index].weight = leaf_weight(grad_sum, hess_sum, options.lambda);

  if (depth >= options.max_depth || samples.size() < 2) return node_index;

  // Exact greedy split search over the presorted columns.
  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  const double parent_score = score(grad_sum, hess_sum, options.lambda);

  const std::size_t n = ws.n;
  const std::size_t m = samples.size();
  for (std::uint32_t i : samples) ws.in_node[i] = 1;

  for (std::size_t f = 0; f < data.num_features(); ++f) {
    // Gather this node's members, in presorted order, into contiguous
    // buffers; the split scan then runs over plain arrays.
    const std::uint32_t* idx = ws.sorted_idx.data() + f * n;
    const double* val = ws.sorted_val.data() + f * n;
    if (m == n) {  // root: every sample is a member, no mask test
      std::copy(val, val + n, ws.val.begin());
      for (std::size_t k = 0; k < n; ++k) {
        ws.grad[k] = grad[idx[k]];
        ws.hess[k] = hess[idx[k]];
      }
    } else {
      std::size_t out = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint32_t i = idx[k];
        if (!ws.in_node[i]) continue;
        ws.val[out] = val[k];
        ws.grad[out] = grad[i];
        ws.hess[out] = hess[i];
        ++out;
      }
    }

    double gl = 0.0;
    double hl = 0.0;
    for (std::size_t k = 0; k + 1 < m; ++k) {
      gl += ws.grad[k];
      hl += ws.hess[k];
      if (ws.val[k] == ws.val[k + 1]) continue;  // split between distinct
      const double gr = grad_sum - gl;
      const double hr = hess_sum - hl;
      if (hl < options.min_child_weight || hr < options.min_child_weight) {
        continue;
      }
      const double gain = 0.5 * (score(gl, hl, options.lambda) +
                                 score(gr, hr, options.lambda) -
                                 parent_score) -
                          options.gamma;
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (ws.val[k] + ws.val[k + 1]);
      }
    }
  }

  for (std::uint32_t i : samples) ws.in_node[i] = 0;

  if (best_feature < 0) return node_index;

  std::vector<std::uint32_t> left;
  std::vector<std::uint32_t> right;
  for (std::uint32_t i : samples) {
    if (data.features(i)[static_cast<std::size_t>(best_feature)] <
        best_threshold) {
      left.push_back(i);
    } else {
      right.push_back(i);
    }
  }
  AP_ASSERT(!left.empty() && !right.empty());

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  const int l =
      build_presorted(data, grad, hess, left, depth + 1, options, ws);
  nodes_[node_index].left = l;
  const int r =
      build_presorted(data, grad, hess, right, depth + 1, options, ws);
  nodes_[node_index].right = r;
  return node_index;
}

int RegressionTree::build_reference(const Dataset& data,
                                    std::span<const double> grad,
                                    std::span<const double> hess,
                                    std::vector<std::size_t>& samples,
                                    int depth, const TreeOptions& options) {
  depth_ = std::max(depth_, depth);
  double grad_sum = 0.0;
  double hess_sum = 0.0;
  for (std::size_t i : samples) {
    grad_sum += grad[i];
    hess_sum += hess[i];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_index].weight = leaf_weight(grad_sum, hess_sum, options.lambda);

  if (depth >= options.max_depth || samples.size() < 2) return node_index;

  // Exact greedy split search, re-sorting the node's samples per feature.
  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;
  const double parent_score = score(grad_sum, hess_sum, options.lambda);

  std::vector<std::size_t> order;
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    order = samples;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double va = data.features(a)[f];
      const double vb = data.features(b)[f];
      return va < vb || (va == vb && a < b);  // stable under ties
    });
    double gl = 0.0;
    double hl = 0.0;
    for (std::size_t k = 0; k + 1 < order.size(); ++k) {
      gl += grad[order[k]];
      hl += hess[order[k]];
      const double vk = data.features(order[k])[f];
      const double vn = data.features(order[k + 1])[f];
      if (vk == vn) continue;  // can only split between distinct values
      const double gr = grad_sum - gl;
      const double hr = hess_sum - hl;
      if (hl < options.min_child_weight || hr < options.min_child_weight) {
        continue;
      }
      const double gain = 0.5 * (score(gl, hl, options.lambda) +
                                 score(gr, hr, options.lambda) -
                                 parent_score) -
                          options.gamma;
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (vk + vn);
      }
    }
  }

  if (best_feature < 0) return node_index;

  std::vector<std::size_t> left;
  std::vector<std::size_t> right;
  for (std::size_t i : samples) {
    if (data.features(i)[static_cast<std::size_t>(best_feature)] <
        best_threshold) {
      left.push_back(i);
    } else {
      right.push_back(i);
    }
  }
  AP_ASSERT(!left.empty() && !right.empty());

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  const int l = build_reference(data, grad, hess, left, depth + 1, options);
  nodes_[node_index].left = l;
  const int r = build_reference(data, grad, hess, right, depth + 1, options);
  nodes_[node_index].right = r;
  return node_index;
}

void RegressionTree::save(util::ArchiveWriter& out) const {
  out.write("tree.depth", static_cast<std::int64_t>(depth_));
  std::vector<std::int64_t> structure;
  std::vector<double> values;
  structure.reserve(nodes_.size() * 3);
  values.reserve(nodes_.size() * 2);
  for (const Node& n : nodes_) {
    structure.push_back(n.feature);
    structure.push_back(n.left);
    structure.push_back(n.right);
    values.push_back(n.threshold);
    values.push_back(n.weight);
  }
  out.write("tree.structure", structure);
  out.write("tree.values", values);
}

void RegressionTree::load(util::ArchiveReader& in) {
  const std::int64_t archived_depth = in.read_int("tree.depth");
  AP_REQUIRE(archived_depth >= 0, "corrupt tree archive: negative depth");
  const auto structure = in.read_ints("tree.structure");
  const auto values = in.read_doubles("tree.values");
  AP_REQUIRE(structure.size() % 3 == 0 &&
                 values.size() == structure.size() / 3 * 2,
             "corrupt tree archive");
  const std::size_t n = structure.size() / 3;
  nodes_.assign(n, Node{});
  for (std::size_t i = 0; i < n; ++i) {
    nodes_[i].feature = static_cast<int>(structure[3 * i]);
    nodes_[i].left = static_cast<int>(structure[3 * i + 1]);
    nodes_[i].right = static_cast<int>(structure[3 * i + 2]);
    nodes_[i].threshold = values[2 * i];
    nodes_[i].weight = values[2 * i + 1];
    const auto limit = static_cast<int>(n);
    // Children must be -1 (leaf link) or a valid node index; any other
    // negative value would pass a `< limit` check and then index out of
    // bounds in predict().
    AP_REQUIRE(nodes_[i].feature >= -1 && nodes_[i].left >= -1 &&
                   nodes_[i].right >= -1 && nodes_[i].left < limit &&
                   nodes_[i].right < limit,
               "corrupt tree archive: bad node indices");
    // An interior node (feature >= 0) must have both children.
    AP_REQUIRE(nodes_[i].feature < 0 ||
                   (nodes_[i].left >= 0 && nodes_[i].right >= 0),
               "corrupt tree archive: interior node missing a child");
  }
  AP_REQUIRE(!nodes_.empty(), "corrupt tree archive: no nodes");

  // Walk from the root: a node reached twice is a cycle or a shared child
  // (predict() could loop forever), a node never reached is garbage.  Each
  // node is expanded at most once, so the walk itself always terminates.
  std::vector<unsigned char> seen(n, 0);
  std::vector<std::pair<int, int>> stack{{0, 0}};  // (node, level)
  std::size_t reached = 0;
  depth_ = 0;
  while (!stack.empty()) {
    const auto [idx, level] = stack.back();
    stack.pop_back();
    const auto i = static_cast<std::size_t>(idx);
    AP_REQUIRE(!seen[i], "corrupt tree archive: node reached twice");
    seen[i] = 1;
    ++reached;
    depth_ = std::max(depth_, level);
    if (nodes_[i].feature >= 0) {
      stack.push_back({nodes_[i].left, level + 1});
      stack.push_back({nodes_[i].right, level + 1});
    }
  }
  AP_REQUIRE(reached == n, "corrupt tree archive: unreachable node");
  AP_REQUIRE(archived_depth == depth_,
             "corrupt tree archive: depth disagrees with the nodes");
}

double RegressionTree::predict(std::span<const double> features) const {
  AP_REQUIRE(!nodes_.empty(), "tree not fitted");
  int idx = 0;
  while (nodes_[static_cast<std::size_t>(idx)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    const auto f = static_cast<std::size_t>(n.feature);
    AP_REQUIRE(f < features.size(), "feature arity mismatch in tree predict");
    idx = features[f] < n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(idx)].weight;
}

}  // namespace autopower::ml
