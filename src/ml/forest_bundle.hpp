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
// A bundle holds either each forest's fit-time table or, for rows that
// share some features (a power trace's hardware and program features),
// tables compiled with those features pinned.  Both go through the same
// rank() and predict(); every output is bit-identical to
// GBTRegressor::predict.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ml/gbt.hpp"

namespace autopower::ml {

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

  /// Bundles fitted `forests`.  With `pins` empty each keeps its fit-time
  /// table; otherwise each gets compile_table(pins, rows) where that pays
  /// for itself over `rows` rows, and its fit-time table where not.  The
  /// bundle names a forest by its fit-time table, which copies of the
  /// forest share, so it serves any copy of the forests it was built
  /// from.
  explicit ForestBundle(std::span<const GBTRegressor* const> forests,
                        std::span<const std::optional<double>> pins = {},
                        std::size_t rows = 0);

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

  /// Trees the bundle's tables hold and trees predict() still walks per
  /// row, summed over its forests.
  [[nodiscard]] std::size_t tabled_trees() const noexcept;
  [[nodiscard]] std::size_t walked_trees() const noexcept;

 private:
  struct Slot {
    std::shared_ptr<const GridTable> fit;    ///< names the forest
    std::shared_ptr<const GridTable> table;  ///< the table predict reads
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
