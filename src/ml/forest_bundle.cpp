#include "ml/forest_bundle.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace autopower::ml {

namespace {

// The batched-predict instruments gbt.cpp registers with the rest of
// ml.gbt.*; looked up by name, so both refer to the same ones.
struct PredictMetrics {
  util::Histogram& predict_ns;
  util::Counter& predict_rows;
};

PredictMetrics& predict_metrics() {
  auto& r = util::MetricsRegistry::global();
  static PredictMetrics m{r.histogram("ml.gbt.predict_ns"),
                          r.counter("ml.gbt.predict_rows")};
  return m;
}

// Rows per block of the table lookup and the untabled walk: the block's
// indices and outputs stay in L1.
constexpr std::size_t kBlock = 64;

// Rows the AVX2 forest_leaf_add walks per group; rows past the last whole
// group take its scalar tail.
constexpr std::size_t kGroup = 16;

// Shortest block tail predict() pads to a whole group: one group of 16
// vector lanes (~1.6 ns per tree-row each) costs about what 4 rows of the
// scalar tail (~6.4 ns each) do.
constexpr std::size_t kMinPaddedTail = 4;

// Values rank_values() searches in lockstep, so their dependent loads
// overlap.
constexpr std::size_t kLanes = 8;

// r[j] = #{t in u : !(x[j] < t)} for j < L: a branch-free binary search
// for the partition point of a predicate that holds on a prefix of the
// sorted, non-empty u (all of it for NaN).  The step count depends only
// on u.size(), so the loop never mispredicts.
template <std::size_t L>
void rank_rows(const double* x, std::span<const double> u,
               std::uint32_t* r) {
  const double* base[L];
  for (std::size_t j = 0; j < L; ++j) base[j] = u.data();
  for (std::size_t len = u.size(); len > 1; len -= len / 2) {
    const std::size_t half = len / 2;
    for (std::size_t j = 0; j < L; ++j) {
      base[j] = !(x[j] < base[j][half]) ? base[j] + half : base[j];
    }
  }
  for (std::size_t j = 0; j < L; ++j) {
    r[j] = static_cast<std::uint32_t>(base[j] - u.data()) +
           static_cast<std::uint32_t>(!(x[j] < *base[j]));
  }
}

}  // namespace

void rank_values(std::span<const double> x, std::span<const double> u,
                 std::uint32_t* r) {
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    rank_rows<kLanes>(x.data() + i, u, r + i);
  }
  for (; i < n; ++i) rank_rows<1>(x.data() + i, u, r + i);
}

ForestBundle::ForestBundle(std::span<const GBTRegressor* const> forests) {
  slots_.reserve(forests.size());
  std::size_t n_features = 0;
  for (const GBTRegressor* forest : forests) {
    AP_REQUIRE(forest != nullptr && forest->fitted(),
               "ForestBundle needs fitted forests");
    Slot slot;
    slot.table = forest->table_;
    slot.num_trees = forest->num_trees();
    n_features = std::max(n_features, slot.table->thresholds.size());
    max_feature_ = std::max(max_feature_, forest->max_feature_);
    slots_.push_back(std::move(slot));
  }

  // U_f: the sorted distinct union of every table's T_f (equality merges
  // -0.0 with +0.0, as within one table).
  std::vector<std::vector<double>> unions(n_features);
  for (const Slot& slot : slots_) {
    const auto& thresholds = slot.table->thresholds;
    for (std::size_t f = 0; f < thresholds.size(); ++f) {
      auto& u = unions[f];
      for (const double t : thresholds[f]) {
        const auto at = std::lower_bound(u.begin(), u.end(), t);
        if (at == u.end() || *at != t) u.insert(at, t);
      }
    }
  }
  std::vector<std::uint32_t> rank_row(n_features);
  for (std::size_t f = 0; f < n_features; ++f) {
    if (unions[f].empty()) continue;
    rank_row[f] = static_cast<std::uint32_t>(ranked_feature_.size());
    ranked_feature_.push_back(static_cast<std::uint32_t>(f));
    unions_.push_back(std::move(unions[f]));
  }

  // A value of union rank u is >= U_f[0..u) and < the rest, so its rank in
  // a table's T_f (a subset of U_f) is #{t in T_f : !(U_f[u-1] < t)}; NaN
  // has the top rank in both.
  for (Slot& slot : slots_) {
    const auto& thresholds = slot.table->thresholds;
    std::uint32_t stride = 1;
    for (std::size_t f = 0; f < thresholds.size(); ++f) {
      const auto& tf = thresholds[f];
      if (tf.empty()) continue;
      const auto& u = unions_[rank_row[f]];
      slot.lookups.emplace_back(rank_row[f],
                                static_cast<std::uint32_t>(luts_.size()));
      luts_.push_back(0);
      std::size_t rank = 0;
      for (const double x : u) {
        while (rank < tf.size() && !(x < tf[rank])) ++rank;
        luts_.push_back(stride * static_cast<std::uint32_t>(rank));
      }
      stride *= static_cast<std::uint32_t>(tf.size() + 1);
    }
  }
}

void ForestBundle::rank(std::span<const double> rows, std::size_t arity,
                        ForestTile& tile) const {
  AP_REQUIRE(arity > 0 && rows.size() % arity == 0,
             "row buffer is not a multiple of the feature arity");
  AP_REQUIRE(max_feature_ < static_cast<int>(arity),
             "feature arity mismatch in ForestBundle::rank");
  const std::size_t n = rows.size() / arity;
  tile.rows = rows;
  tile.arity = arity;
  tile.count = n;

  // Row-major copy order: reads stream sequentially and each column's
  // write position advances one slot per row, which beats a per-feature
  // strided gather at these arities.
  const auto n_cols = static_cast<std::size_t>(max_feature_ + 1);
  const std::size_t stride = (n + kGroup - 1) / kGroup * kGroup + 8;
  tile.stride = stride;
  // At least one column, so predict() can offset cols.data() even for
  // forests that test no feature.
  tile.cols.resize(std::max<std::size_t>(n_cols, 1) * stride);
  double* const cols = tile.cols.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* const r = rows.data() + i * arity;
    for (std::size_t f = 0; f < n_cols; ++f) cols[f * stride + i] = r[f];
  }

  // Per ranked feature, each row's rank in the union.
  tile.ranks.resize(ranked_feature_.size() * n);
  for (std::size_t k = 0; k < ranked_feature_.size(); ++k) {
    rank_values({cols + ranked_feature_[k] * stride, n}, unions_[k],
                tile.ranks.data() + k * n);
  }
}

const ForestBundle::Slot& ForestBundle::slot_of(
    const GBTRegressor& forest) const {
  for (const Slot& slot : slots_) {
    if (slot.table == forest.table_) return slot;
  }
  throw util::InvalidArgument("forest is not part of this ForestBundle");
}

void ForestBundle::predict(const GBTRegressor& forest, const ForestTile& tile,
                           std::span<double> out) const {
  const Slot& slot = slot_of(forest);
  const std::size_t n = tile.count;
  AP_REQUIRE(out.size() == n, "ForestBundle::predict output span must "
                              "match the tile's row count");
  util::ScopedTimer predict_timer(predict_metrics().predict_ns);
  predict_metrics().predict_rows.add(n);
  const double* const cells = slot.table->cells.data();
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t block = std::min(kBlock, n - begin);
    // A tail of kMinPaddedTail or more rows past the block's last whole
    // group is walked as one more group.  Its padding rows read the
    // column slack rank() leaves (stride >= n rounded up to kGroup) and
    // sum into acc's spare lanes, which never reach `out`.
    const std::size_t lanes = block % kGroup >= kMinPaddedTail
                                  ? (block + kGroup - 1) / kGroup * kGroup
                                  : block;
    std::uint32_t idx[kBlock] = {};
    for (const auto& [k, lut_off] : slot.lookups) {
      const std::uint32_t* const r = tile.ranks.data() + k * n + begin;
      const std::uint32_t* const lut = luts_.data() + lut_off;
      for (std::size_t i = 0; i < block; ++i) idx[i] += lut[r[i]];
    }
    double acc[kBlock] = {};
    for (std::size_t i = 0; i < block; ++i) acc[i] = cells[idx[i]];
    forest.walk_trees(tile.cols.data() + begin, tile.stride,
                      tile.rows.data() + begin * tile.arity, tile.arity,
                      block, lanes, slot.table->tabled_trees, slot.num_trees,
                      acc);
    std::copy(acc, acc + block, out.data() + begin);
  }
  if (forest.options_.nonnegative_prediction) {
    for (double& v : out) v = std::max(v, 0.0);
  }
}

}  // namespace autopower::ml
