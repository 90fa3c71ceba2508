// One rank pass shared by several forests that read the same feature rows.
//
// AutoPower evaluates up to ~10 GBT forests per component (alpha', the
// SRAM read/write models, F_act, F_var) on one H+E+P feature tile.  Each
// forest's prefix grid table (GBTRegressor::compile_table) needs, per row,
// the rank of every feature against the thresholds the table tests.  A
// ForestBundle takes the sorted union U_f of those thresholds over all of
// its forests' tables and ranks each row's feature f once against U_f
// (rank(), counting !(x < t) so NaN takes the top rank).  Because every
// table's T_f is a subset of U_f, a forest's own rank is a prefix count of
// the union rank, so predict() maps the shared ranks to its table index
// with one small lookup per feature and then walks only its untabled
// trees.  The QuickScorer idea (Lucchese et al., SIGIR 2015) of testing
// each condition once for a whole ensemble, applied per feature.
//
// Every output is bit-identical to GBTRegressor::predict.  The same
// branch-free search, rank_values(), also keys AutoPowerModel's rows by
// their activity cells.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/gbt.hpp"

namespace autopower::ml {

/// r[i] = #{t in u : !(x[i] < t)} for every i: the rank of each value
/// against the sorted, non-empty thresholds u, NaN taking the top rank as
/// it goes right in every tree.  Two values of equal rank take the same
/// branch at every condition on a threshold of u.  A branch-free binary
/// search, several values in lockstep.
void rank_values(std::span<const double> x, std::span<const double> u,
                 std::uint32_t* r);

/// One tile of feature rows, copied column-major and ranked once by a
/// ForestBundle for all of its forests.  Reused across tiles without
/// reallocating.
struct ForestTile {
  std::span<const double> rows;  ///< row-major, `arity` values per row
  std::size_t arity = 0;
  std::size_t count = 0;  ///< rows in the tile
  /// Column stride of `cols`: count rounded up to a multiple of 16, plus
  /// 8, so no two columns of a 512-row tile alias the same L1 sets.
  /// predict() may read the slack past `count` as padding rows.
  std::size_t stride = 0;
  std::vector<double> cols;  ///< cols[f * stride + i] = feature f of row i
  /// ranks[k * count + i]: row i's rank in the bundle's k-th ranked
  /// feature union.
  std::vector<std::uint32_t> ranks;
};

class ForestBundle {
 public:
  ForestBundle() = default;

  /// Bundles fitted `forests` with their fit-time tables.  The bundle
  /// names a forest by that table, which copies of the forest share, so
  /// it serves any copy of the forests it was built from.
  explicit ForestBundle(std::span<const GBTRegressor* const> forests);

  /// Copies `rows` (row-major, `arity` wide) into `tile` column-major and
  /// ranks every row once against each feature's threshold union.
  void rank(std::span<const double> rows, std::size_t arity,
            ForestTile& tile) const;

  /// out[i] = forest.predict(row i of `tile`), bit for bit: each row's
  /// table entry from the shared ranks, then the untabled trees.
  /// `forest` must be (a copy of) one the bundle was built from, and
  /// `tile` ranked by this bundle.
  void predict(const GBTRegressor& forest, const ForestTile& tile,
               std::span<double> out) const;

 private:
  struct Slot {
    std::shared_ptr<const GridTable> table;  ///< names the forest
    std::size_t num_trees = 0;
    /// Per feature the table ranks: (rank row k, offset of its lookup in
    /// luts_).  lut[u] is stride_f times the forest's rank of a value
    /// whose union rank is u.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> lookups;
  };

  [[nodiscard]] const Slot& slot_of(const GBTRegressor& forest) const;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> ranked_feature_;  ///< feature of rank row k
  std::vector<std::vector<double>> unions_;    ///< U_f of rank row k
  std::vector<std::uint32_t> luts_;
  int max_feature_ = -1;  ///< highest feature any forest tests
};

}  // namespace autopower::ml
