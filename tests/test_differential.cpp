// Randomized differential oracles over the fast paths (src/testcore).
//
// Every optimised path in this repository claims BIT-identity with a
// reference path.  These properties generate hundreds of random inputs
// per oracle and compare the two paths exactly:
//
//   (a) reference vs presorted tree builder  -> byte-equal archives,
//   (b) per-sample vs batched forest predict (prefix grid table, then
//       padded walk), shared ForestBundle predict, per-context vs tiled
//       clock/SRAM/logic group predict, and per-context vs batched and
//       trace-cell AutoPowerModel predict -> identical doubles,
//   (c) cold vs memoized / shared-structural-cache simulate and
//       simulate_trace -> identical event vectors,
//   (d) serial vs multi-threaded train / batch engine / sweep ->
//       byte-equal archives and field-identical reports.
//
// On failure the proptest runner prints the base seed and the exact
// AUTOPOWER_PROPTEST_SEED line that reproduces the case; this binary
// also accepts --seed=N and --cases=N (see main() at the bottom).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/events.hpp"
#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "core/features.hpp"
#include "ml/forest_bundle.hpp"
#include "ml/gbt.hpp"
#include "power/golden.hpp"
#include "serve/engine.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "testcore/tier_guard.hpp"
#include "testcore/generators.hpp"
#include "testcore/proptest.hpp"
#include "util/archive.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "workload/workload.hpp"

namespace autopower {
namespace {

using testcore::Pcg32;

// ---------------------------------------------------------------------
// Shared helpers.

std::string gbt_archive(const ml::GBTRegressor& model) {
  std::ostringstream out;
  util::ArchiveWriter writer(out);
  model.save(writer);
  return out.str();
}

std::string model_archive(const core::AutoPowerModel& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

std::optional<std::string> events_diff(const arch::EventVector& a,
                                       const arch::EventVector& b,
                                       const std::string& where) {
  for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
    const auto kind = static_cast<arch::EventKind>(i);
    if (a[kind] != b[kind]) {
      std::ostringstream msg;
      msg << where << ": event " << arch::event_name(kind) << " differs: "
          << a[kind] << " vs " << b[kind];
      return msg.str();
    }
  }
  return std::nullopt;
}

std::string describe_dataset(const ml::Dataset& data,
                             const ml::GbtOptions& opt) {
  std::ostringstream out;
  out << data.size() << " rows x " << data.num_features()
      << " features, rounds=" << opt.num_rounds
      << " depth=" << opt.tree.max_depth << " lr=" << opt.learning_rate
      << " lambda=" << opt.tree.lambda << " gamma=" << opt.tree.gamma
      << " mcw=" << opt.tree.min_child_weight;
  if (data.size() <= 10) {
    out << "; rows:";
    for (std::size_t i = 0; i < data.size(); ++i) {
      out << " [";
      for (const double v : data.features(i)) out << v << ",";
      out << "->" << data.target(i) << "]";
    }
  }
  return out.str();
}

ml::Dataset drop_row(const ml::Dataset& data, std::size_t row) {
  ml::Dataset out(data.feature_names());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != row) out.add_sample(data.features(i), data.target(i));
  }
  return out;
}

// Small AutoPower hyper-parameters so a full 22x3 train fits in a
// property case (the differential claim is thread-count invariance, not
// accuracy, so tiny ensembles are enough).
core::AutoPowerOptions tiny_autopower_options() {
  core::AutoPowerOptions opt;
  opt.clock.gbt.num_rounds = 3;
  opt.clock.gbt.tree.max_depth = 2;
  opt.sram.gbt.num_rounds = 3;
  opt.sram.gbt.tree.max_depth = 2;
  opt.logic.gbt.num_rounds = 3;
  opt.logic.gbt.tree.max_depth = 2;
  return opt;
}

const power::GoldenPowerModel& shared_golden() {
  static const power::GoldenPowerModel* golden =
      new power::GoldenPowerModel();
  return *golden;
}

// ---------------------------------------------------------------------
// Oracle (a): reference vs presorted tree builder.

struct TreeCase {
  ml::Dataset data;
  ml::GbtOptions opt;
};

TEST(DifferentialTrees, ReferenceVsPresortedBuildersBitIdentical) {
  const auto result = testcore::run_property<TreeCase>(
      {.name = "tree.reference_vs_presorted", .cases = 200},
      [](Pcg32& rng) {
        return TreeCase{testcore::random_dataset(rng),
                        testcore::random_gbt_options(rng)};
      },
      [](const TreeCase& c) -> std::optional<std::string> {
        ml::GbtOptions fast = c.opt;
        fast.tree.reference_split_search = false;
        ml::GbtOptions reference = c.opt;
        reference.tree.reference_split_search = true;
        ml::GBTRegressor fast_model(fast);
        ml::GBTRegressor ref_model(reference);
        fast_model.fit(c.data);
        ref_model.fit(c.data);
        if (gbt_archive(fast_model) != gbt_archive(ref_model)) {
          return "presorted and reference builders produced different "
                 "archives";
        }
        return std::nullopt;
      },
      [](const TreeCase& c) { return describe_dataset(c.data, c.opt); },
      // Shrink: fewer rows first, then fewer rounds / shallower trees.
      [](const TreeCase& c) {
        std::vector<TreeCase> out;
        const std::size_t limit = c.data.size() < 8 ? c.data.size() : 8;
        if (c.data.size() > 2) {
          for (std::size_t i = 0; i < limit; ++i) {
            out.push_back({drop_row(c.data, i), c.opt});
          }
        }
        if (c.opt.num_rounds > 1) {
          TreeCase fewer = c;
          fewer.opt.num_rounds = c.opt.num_rounds / 2;
          out.push_back(std::move(fewer));
        }
        if (c.opt.tree.max_depth > 1) {
          TreeCase shallower = c;
          shallower.opt.tree.max_depth = c.opt.tree.max_depth - 1;
          out.push_back(std::move(shallower));
        }
        return out;
      });
  ASSERT_TRUE(result.passed) << result.report;
  EXPECT_GE(result.cases_run, 1);
}

// ---------------------------------------------------------------------
// Oracle (b): per-sample predict vs the batched path.

TEST(DifferentialTrees, ScalarVsBatchedPredictBitIdentical) {
  const auto result = testcore::run_property<TreeCase>(
      {.name = "gbt.scalar_vs_batched_predict", .cases = 200},
      [](Pcg32& rng) {
        return TreeCase{testcore::random_dataset(rng),
                        testcore::random_gbt_options(rng)};
      },
      [](const TreeCase& c) -> std::optional<std::string> {
        ml::GBTRegressor model(c.opt);
        model.fit(c.data);

        // Query both the training rows and fresh rows (exercise leaves
        // the fit never visited).
        Pcg32 query_rng(util::hash_str("query-rows"));
        std::vector<double> rows(c.data.row_major_features().begin(),
                                 c.data.row_major_features().end());
        const std::size_t features = c.data.num_features();
        for (int extra = 0; extra < 16; ++extra) {
          for (std::size_t j = 0; j < features; ++j) {
            rows.push_back(query_rng.next_range(-12.0, 12.0));
          }
        }

        const auto batched = model.predict_rows(rows, features);
        const std::size_t count = rows.size() / features;
        if (batched.size() != count) return "predict_rows size mismatch";
        for (std::size_t i = 0; i < count; ++i) {
          const std::span<const double> row(rows.data() + i * features,
                                            features);
          const double scalar = model.predict(row);
          if (scalar != batched[i]) {
            std::ostringstream msg;
            msg << "row " << i << ": predict()=" << scalar
                << " predict_rows()=" << batched[i];
            return msg.str();
          }
        }

        const auto all = model.predict_all(c.data);
        for (std::size_t i = 0; i < c.data.size(); ++i) {
          if (all[i] != batched[i]) {
            std::ostringstream msg;
            msg << "predict_all row " << i << " differs from predict_rows";
            return msg.str();
          }
        }
        return std::nullopt;
      },
      [](const TreeCase& c) { return describe_dataset(c.data, c.opt); });
  ASSERT_TRUE(result.passed) << result.report;
}

// Oracle (b), prefix grid: predict_rows starts each row at its prefix
// table entry and walks only the untabled trees.  Queries sit on every
// split threshold, one ulp either side of it, and on the values whose
// ordering is easiest to get wrong (signed zeros, the smallest denormal,
// infinities, NaN), in widths that straddle the 64-row block.

constexpr std::size_t kGridBatchWidths[] = {1, 63, 64, 65, 129};

// Every split threshold of `model`, per feature, read back from its
// archive.
std::vector<std::vector<double>> forest_thresholds(
    const ml::GBTRegressor& model, std::size_t features) {
  std::istringstream in(gbt_archive(model));
  util::ArchiveReader r(in);
  (void)r.read_int("gbt.rounds");
  (void)r.read_double("gbt.lr");
  (void)r.read_int("gbt.max_depth");
  (void)r.read_double("gbt.lambda");
  (void)r.read_double("gbt.gamma");
  (void)r.read_double("gbt.min_child_weight");
  (void)r.read_bool("gbt.nonneg");
  (void)r.read_bool("gbt.fitted");
  (void)r.read_double("gbt.base_score");
  const auto trees = r.read_int("gbt.num_trees");
  std::vector<std::vector<double>> out(features);
  for (std::int64_t t = 0; t < trees; ++t) {
    ml::RegressionTree tree;
    tree.load(r);
    for (const auto& node : tree.nodes()) {
      if (node.feature >= 0) {
        out[static_cast<std::size_t>(node.feature)].push_back(node.threshold);
      }
    }
  }
  return out;
}

// Query rows: each base row as is, then with one feature at a time moved
// to each threshold, its two neighbouring doubles, and the edge values.
std::vector<double> grid_queries(
    std::span<const double> base_rows, std::size_t features,
    const std::vector<std::vector<double>>& thresholds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(), kInf,
                          -kInf, std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> rows(base_rows.begin(), base_rows.end());
  const std::size_t bases = base_rows.size() / features;
  std::size_t next_base = 0;
  const auto add = [&](std::size_t f, double v) {
    const double* base = base_rows.data() + next_base * features;
    next_base = (next_base + 1) % bases;
    const std::size_t at = rows.size();
    rows.insert(rows.end(), base, base + features);
    rows[at + f] = v;
  };
  for (std::size_t f = 0; f < features; ++f) {
    for (const double t : thresholds[f]) {
      add(f, t);
      add(f, std::nextafter(t, -kInf));
      add(f, std::nextafter(t, kInf));
    }
    for (const double v : edges) add(f, v);
  }
  return rows;
}

// Every width's batches against predict(), on every tier, for `model`
// and its archive round trip.
std::optional<std::string> grid_oracle_diff(const ml::GBTRegressor& model,
                                            std::span<const double> rows,
                                            std::size_t features) {
  std::istringstream in(gbt_archive(model));
  util::ArchiveReader reader(in);
  ml::GBTRegressor restored;
  restored.load(reader);
  if (restored.tabled_trees() != model.tabled_trees()) {
    return "restored model tables a different prefix";
  }
  const std::size_t count = rows.size() / features;
  testcore::TierGuard guard;
  for (const auto tier :
       {util::simd::Tier::kScalar, util::simd::Tier::kAvx2}) {
    if (util::simd::kernels_for(tier) == nullptr) continue;
    util::simd::set_active_tier(tier);
    for (const ml::GBTRegressor* m : {&model, &std::as_const(restored)}) {
      for (const std::size_t width : kGridBatchWidths) {
        for (std::size_t begin = 0; begin < count; begin += width) {
          const std::size_t n = std::min(width, count - begin);
          const auto batched =
              m->predict_rows(rows.subspan(begin * features, n * features),
                              features);
          for (std::size_t i = 0; i < n; ++i) {
            const double scalar =
                model.predict(rows.subspan((begin + i) * features, features));
            if (batched[i] != scalar) {
              std::ostringstream msg;
              msg.precision(17);
              msg << util::simd::tier_name(tier)
                  << (m == &model ? " fitted" : " restored") << ", width "
                  << width << ", row " << begin + i << ": predict()="
                  << scalar << " predict_rows()=" << batched[i]
                  << " (tabled " << m->tabled_trees() << " of "
                  << m->num_trees() << ")";
              return msg.str();
            }
          }
        }
      }
    }
  }
  return std::nullopt;
}

// Continuous features in [0, 1) with a target that needs all of them, so
// the trees keep finding new thresholds.
ml::Dataset continuous_dataset(Pcg32& rng, int rows, int features) {
  std::vector<std::string> names;
  for (int f = 0; f < features; ++f) {
    names.emplace_back("f").append(std::to_string(f));
  }
  ml::Dataset data(std::move(names));
  util::Rng values(rng.next_u64());
  std::vector<double> row(static_cast<std::size_t>(features));
  for (int i = 0; i < rows; ++i) {
    for (double& x : row) x = values.next_unit();
    double y = 0.0;
    for (const double x : row) y = 2.0 * y + x * x;
    data.add_sample(row, y);
  }
  return data;
}

TEST(DifferentialTrees, PrefixGridTableVsScalarPredictBitIdentical) {
  // Three forest shapes: 16 mixed-style rows are tabled whole, 40
  // continuous rows over 3 features table a prefix, and 2,000 continuous
  // rows leave a tiny table or none.
  std::array<int, 3> shapes{};  // full, partial, at most two trees tabled
  const auto result = testcore::run_property<TreeCase>(
      {.name = "gbt.prefix_grid_vs_scalar", .cases = 200},
      [](Pcg32& rng) {
        ml::GbtOptions opt = testcore::random_gbt_options(rng);
        switch (rng.index(3)) {
          case 0:
            return TreeCase{testcore::random_dataset(rng, {16, 16, 2, 6}),
                            opt};
          case 1:
            opt.num_rounds = rng.next_int(8, 16);
            opt.tree.max_depth = 3;
            return TreeCase{continuous_dataset(rng, 40, 4), opt};
          default:
            opt.tree.max_depth = 4;
            return TreeCase{continuous_dataset(rng, 2000, rng.next_int(4, 6)),
                            opt};
        }
      },
      [&shapes](const TreeCase& c) -> std::optional<std::string> {
        ml::GBTRegressor model(c.opt);
        model.fit(c.data);
        const std::size_t tabled = model.tabled_trees();
        if (tabled > model.num_trees()) return "tabled more trees than fit";
        if (tabled == model.num_trees()) {
          ++shapes[0];
        } else if (tabled > 2) {
          ++shapes[1];
        } else {
          ++shapes[2];
        }
        const std::size_t features = c.data.num_features();
        const auto base = c.data.row_major_features().first(
            std::min<std::size_t>(c.data.size(), 8) * features);
        const auto rows = grid_queries(
            base, features, forest_thresholds(model, features));
        return grid_oracle_diff(model, rows, features);
      },
      [](const TreeCase& c) { return describe_dataset(c.data, c.opt); });
  ASSERT_TRUE(result.passed) << result.report;
  if (result.cases_run >= 30) {  // a short --cases run may miss a shape
    EXPECT_GT(shapes[0], 0) << "no forest was tabled whole";
    EXPECT_GT(shapes[1], 0) << "no forest was tabled in part";
    EXPECT_GT(shapes[2], 0) << "no forest left (almost) every tree walked";
  }
}

// A right-leaning chain of splits: split k tests feature k % 2 against
// thresholds[k] and its left child is a leaf, so the tree's depth is
// thresholds.size().
void write_chain_tree(util::ArchiveWriter& w,
                      const std::vector<double>& thresholds) {
  std::vector<std::int64_t> structure;
  std::vector<double> values;
  const auto n = static_cast<std::int64_t>(thresholds.size());
  for (std::int64_t k = 0; k < n; ++k) {  // split k is node 2k
    structure.insert(structure.end(),
                     {k % 2, 2 * k + 1, 2 * k + 2, -1, -1, -1});
    values.insert(values.end(),
                  {thresholds[static_cast<std::size_t>(k)], 0.0, 0.0,
                   0.5 + static_cast<double>(k)});
  }
  structure.insert(structure.end(), {-1, -1, -1});
  values.insert(values.end(), {0.0, -1.25});
  w.write("tree.depth", n);
  w.write("tree.structure", structure);
  w.write("tree.values", values);
}

ml::GBTRegressor chain_forest(
    const std::vector<std::vector<double>>& trees) {
  std::ostringstream os;
  util::ArchiveWriter w(os);
  w.write("gbt.rounds", static_cast<std::int64_t>(trees.size()));
  w.write("gbt.lr", 0.3);
  w.write("gbt.max_depth", std::int64_t{6});
  w.write("gbt.lambda", 1.0);
  w.write("gbt.gamma", 0.0);
  w.write("gbt.min_child_weight", 1.0);
  w.write("gbt.nonneg", false);
  w.write("gbt.fitted", true);
  w.write("gbt.base_score", 0.125);
  w.write("gbt.num_trees", static_cast<std::int64_t>(trees.size()));
  for (const auto& t : trees) write_chain_tree(w, t);
  std::istringstream in(os.str());
  util::ArchiveReader r(in);
  ml::GBTRegressor model;
  model.load(r);
  return model;
}

TEST(DifferentialTrees, PrefixGridStopsAtNanThresholdsAndDeepTrees) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Forest {
    const char* what;
    std::vector<std::vector<double>> trees;
    std::size_t tabled;
  };
  const Forest forests[] = {
      {"NaN threshold in tree 1", {{0.5, -1.0}, {nan, 2.0}, {0.25}}, 1},
      // Infinite thresholds are ordinary ranks; T[0] = -inf leaves rank 0
      // unreachable.
      {"+-inf thresholds", {{-kInf, 1.0}, {kInf}, {-kInf, kInf, 0.0}}, 3},
      {"depth-6 tree 1", {{0.5}, {1, 2, 3, 4, 5, 6}, {0.5, 1.5}}, 1},
  };
  for (const Forest& f : forests) {
    const ml::GBTRegressor model = chain_forest(f.trees);
    EXPECT_EQ(model.tabled_trees(), f.tabled) << f.what;
    std::vector<std::vector<double>> thresholds(2);
    for (const auto& t : f.trees) {
      for (std::size_t k = 0; k < t.size(); ++k) {
        thresholds[k % 2].push_back(t[k]);
      }
    }
    const double base[] = {0.0, 0.0, 1.0, -1.0, 7.0, 3.5};
    const auto rows = grid_queries(base, 2, thresholds);
    const auto diff = grid_oracle_diff(model, rows, 2);
    EXPECT_FALSE(diff.has_value()) << f.what << ": " << *diff;
  }
}

// Overwrites every column's slack past the tile's rows, the rows
// ForestBundle::predict may walk as padding, with values no real output
// could absorb unnoticed.
void poison_slack(ml::ForestTile& tile) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double poison[] = {std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf, 1e308};
  for (std::size_t col = 0; col < tile.cols.size(); col += tile.stride) {
    for (std::size_t i = tile.count; i < tile.stride; ++i) {
      tile.cols[col + i] = poison[(col / tile.stride + i) % 4];
    }
  }
}

// Oracle (b), bundle level: shared ForestBundle predict vs per-sample
// predict().
//
// A bundle ranks each feature once against the union of its forests'
// table thresholds and maps the shared ranks to each forest's own table.
// Two or three forests fit on one dataset share a bundle.  The query rows
// sit on the grid_queries values, and a random mask of features is set in
// every row to a base-row value, a split threshold or an edge value
// (signed zeros, denormals, infinities, NaN).  Widths straddle the
// 64-row block and AutoPowerModel's kTileRows tile, and leave block tails
// of every length: 0, the 1-3 rows the scalar tail walks and the 4-15
// rows predict() pads to a 16-row group.  Each tile's column slack is
// poisoned before predict, so a padding row that reached an output would
// show.

constexpr std::size_t kBundleWidths[] = {
    1,   2,   3,   4,   5,   6,   7,   8,   9,
    10,  11,  12,  13,  14,  15,  16,  17,  18,
    19,  20,  56,  63,  64,  65,  120, 121, 127,
    core::AutoPowerModel::kTileRows - 1, core::AutoPowerModel::kTileRows + 1};

struct BundleCase {
  ml::Dataset data;
  std::vector<ml::GbtOptions> opts;  ///< one forest each
  std::uint64_t edit_seed = 0;
};

std::string describe_bundle_case(const BundleCase& c) {
  std::ostringstream out;
  out << "edit seed " << c.edit_seed;
  for (const auto& opt : c.opts) out << "; " << describe_dataset(c.data, opt);
  return out.str();
}

TEST(DifferentialTrees, SharedBundleVsScalarPredictBitIdentical) {
  const auto result = testcore::run_property<BundleCase>(
      {.name = "gbt.bundle_vs_scalar", .cases = 100},
      [](Pcg32& rng) {
        // The prefix-grid shapes: mixed-style rows tabled whole, and
        // continuous rows whose forests table only a prefix.
        const int shape = rng.next_int(0, 2);
        BundleCase c{shape == 0 ? testcore::random_dataset(rng, {16, 16, 2, 6})
                     : shape == 1 ? continuous_dataset(rng, 40, 4)
                                  : continuous_dataset(rng, 300, 5),
                     {},
                     0};
        for (int k = rng.next_int(2, 3); k > 0; --k) {
          ml::GbtOptions opt = testcore::random_gbt_options(rng);
          if (shape > 0) {
            opt.num_rounds = rng.next_int(8, 24);
            opt.tree.max_depth = rng.next_int(3, 4);
          }
          c.opts.push_back(opt);
        }
        c.edit_seed = rng.next_u64();
        return c;
      },
      [](const BundleCase& c) -> std::optional<std::string> {
        const std::size_t features = c.data.num_features();
        std::vector<ml::GBTRegressor> forests;
        for (const auto& opt : c.opts) {
          forests.emplace_back(opt);
          forests.back().fit(c.data);
        }
        std::vector<const ml::GBTRegressor*> ptrs;
        std::vector<std::vector<double>> thresholds(features);
        for (const auto& forest : forests) {
          ptrs.push_back(&forest);
          const auto t = forest_thresholds(forest, features);
          for (std::size_t f = 0; f < features; ++f) {
            thresholds[f].insert(thresholds[f].end(), t[f].begin(),
                                 t[f].end());
          }
        }

        // Set a random subset of the features in every row.
        constexpr double kInf = std::numeric_limits<double>::infinity();
        const double edges[] = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                kInf,
                                -kInf,
                                std::numeric_limits<double>::quiet_NaN()};
        Pcg32 pick(c.edit_seed);
        std::vector<std::optional<double>> edits(features);
        for (std::size_t f = 0; f < features; ++f) {
          if (!pick.next_bool()) continue;
          switch (pick.index(3)) {
            case 0:
              edits[f] = c.data.features(pick.index(c.data.size()))[f];
              break;
            case 1:
              if (!thresholds[f].empty()) {
                edits[f] = thresholds[f][pick.index(thresholds[f].size())];
                break;
              }
              [[fallthrough]];
            default:
              edits[f] = edges[pick.index(std::size(edges))];
          }
        }

        const auto base = c.data.row_major_features().first(
            std::min<std::size_t>(c.data.size(), 8) * features);
        auto rows = grid_queries(base, features, thresholds);
        const std::size_t count = rows.size() / features;
        for (std::size_t i = 0; i < count; ++i) {
          for (std::size_t f = 0; f < features; ++f) {
            if (edits[f]) rows[i * features + f] = *edits[f];
          }
        }
        std::vector<std::vector<double>> expected(forests.size());
        for (std::size_t k = 0; k < forests.size(); ++k) {
          for (std::size_t i = 0; i < count; ++i) {
            expected[k].push_back(forests[k].predict(
                std::span<const double>(rows).subspan(i * features,
                                                      features)));
          }
        }

        const ml::ForestBundle bundle(ptrs);
        testcore::TierGuard guard;
        ml::ForestTile tile;
        std::vector<double> out;
        for (const auto tier :
             {util::simd::Tier::kScalar, util::simd::Tier::kAvx2}) {
          if (util::simd::kernels_for(tier) == nullptr) continue;
          util::simd::set_active_tier(tier);
          for (const std::size_t width : kBundleWidths) {
            for (std::size_t begin = 0; begin < count; begin += width) {
              const std::size_t n = std::min(width, count - begin);
              bundle.rank(std::span<const double>(rows).subspan(
                              begin * features, n * features),
                          features, tile);
              poison_slack(tile);
              for (std::size_t k = 0; k < forests.size(); ++k) {
                out.assign(n, 0.0);
                bundle.predict(forests[k], tile, out);
                for (std::size_t i = 0; i < n; ++i) {
                  if (out[i] == expected[k][begin + i]) continue;
                  std::ostringstream msg;
                  msg.precision(17);
                  msg << util::simd::tier_name(tier) << ", forest " << k
                      << ", width " << width << ", row " << begin + i
                      << ": predict()=" << expected[k][begin + i]
                      << " bundle=" << out[i] << " (tabled "
                      << forests[k].tabled_trees() << ")";
                  return msg.str();
                }
              }
            }
          }
        }
        return std::nullopt;
      },
      describe_bundle_case);
  ASSERT_TRUE(result.passed) << result.report;
}

// Oracle (b), group level: per-context group predict vs the model's
// batched groups.
//
// Every clock / SRAM / logic model writes its power formula (Eq. 7,
// Eq. 9-10, Eq. 11-12) once, in combine().  Its predict(ctx) ranks and
// walks one H+E+P row through its own forest bundle; AutoPowerModel's
// predict_batch takes the forest outputs from activity cells and the
// structural terms once per distinct H.  Component k of element i must
// equal each group's predict(ctxs[i]) for each of the 22 components.
// Rows are drawn from two configurations at random, so the structural
// terms alternate at arbitrary rows.

constexpr std::size_t kGroupBatchSizes[] = {1, 56, 63, 64, 65, 120, 129};

// Full-size models trained once on C1/C15.  The ablation variant (ridge
// alpha', SRAM activity without program features) takes the other
// branches of the clock and SRAM models.
const core::AutoPowerModel& group_oracle_model(bool ablation) {
  static const auto* const models = [] {
    sim::SimOptions opt;
    opt.sample_accesses = 500;
    opt.sample_branches = 500;
    sim::PerfSimulator sim(opt);
    std::vector<core::EvalContext> train;
    for (const char* cfg_name : {"C1", "C15"}) {
      const auto& cfg = arch::boom_config(cfg_name);
      for (const char* wl_name : {"dhrystone", "qsort", "vvadd", "median"}) {
        const auto& wl = workload::workload_by_name(wl_name);
        core::EvalContext ctx;
        ctx.cfg = &cfg;
        ctx.workload = wl.name;
        ctx.program = workload::program_features(wl);
        ctx.events = sim.simulate(cfg, wl);
        train.push_back(std::move(ctx));
      }
    }
    core::AutoPowerOptions ablation_opt;
    ablation_opt.clock.linear_alpha = true;
    ablation_opt.sram.program_features = false;
    auto* out = new std::array<core::AutoPowerModel, 2>{
        core::AutoPowerModel{}, core::AutoPowerModel{ablation_opt}};
    for (auto& model : *out) model.train(train, shared_golden(), 1);
    return out;
  }();
  return (*models)[ablation ? 1 : 0];
}

struct GroupCase {
  arch::HardwareConfig cfg_a;
  arch::HardwareConfig cfg_b;
  workload::WorkloadProfile wl;
  sim::SimOptions sim_opt;
  bool ablation = false;
  std::uint64_t pick_seed = 0;  ///< draws each batch's trace windows
};

std::string describe_group_case(const GroupCase& c) {
  std::ostringstream out;
  out << "configs " << c.cfg_a.name() << "/" << c.cfg_b.name()
      << ", workload " << c.wl.name << " (" << c.wl.instructions
      << " instrs), window=" << c.sim_opt.window_cycles
      << (c.ablation ? ", ablation model" : ", default model")
      << ", pick seed " << c.pick_seed;
  return out.str();
}

TEST(DifferentialGroups, PerContextVsBatchedGroupPredictBitIdentical) {
  const auto result = testcore::run_property<GroupCase>(
      {.name = "core.group_per_context_vs_batched", .cases = 25},
      [](Pcg32& rng) {
        GroupCase c{testcore::random_hardware_config(rng),
                    testcore::random_hardware_config(rng),
                    testcore::random_workload_profile(rng),
                    testcore::small_sim_options(rng)};
        c.wl.instructions = 20'000 + rng.next_below(20'000);
        c.ablation = rng.next_bool();
        c.pick_seed = rng.next_u64();
        return c;
      },
      [](const GroupCase& c) -> std::optional<std::string> {
        // Held-out contexts: trace windows of two random configurations.
        sim::PerfSimulator sim(c.sim_opt);
        std::vector<core::EvalContext> pool;
        for (const auto* cfg : {&c.cfg_a, &c.cfg_b}) {
          core::EvalContext ctx;
          ctx.cfg = cfg;
          ctx.workload = c.wl.name;
          ctx.program = workload::program_features(c.wl);
          for (const auto& window : sim.simulate_trace(*cfg, c.wl)) {
            ctx.events = window;
            pool.push_back(ctx);
          }
        }
        if (pool.empty()) return "simulate_trace returned no windows";

        const auto& model = group_oracle_model(c.ablation);
        Pcg32 pick(c.pick_seed);
        for (const std::size_t size : kGroupBatchSizes) {
          std::vector<core::EvalContext> batch;
          for (std::size_t k = 0; k < size; ++k) {
            batch.push_back(pool[pick.index(pool.size())]);
          }
          const auto tiled = model.predict_batch(batch);
          for (const arch::ComponentKind comp : arch::all_components()) {
            const auto& clock = model.clock_model(comp);
            const auto& sram = model.sram_model(comp);
            const auto& logic = model.logic_model(comp);
            for (std::size_t i = 0; i < size; ++i) {
              const auto& groups =
                  tiled[i].components[static_cast<std::size_t>(comp)].groups;
              const double per_context[] = {clock.predict(batch[i]),
                                            sram.predict(batch[i]),
                                            logic.predict(batch[i])};
              const double batched[] = {
                  groups.clock, groups.sram,
                  groups.logic_register + groups.logic_comb};
              for (int g = 0; g < 3; ++g) {
                if (per_context[g] != batched[g]) {
                  std::ostringstream msg;
                  msg.precision(17);
                  msg << arch::component_name(comp) << " "
                      << (g == 0 ? "clock" : g == 1 ? "sram" : "logic")
                      << ", batch " << size << " row " << i
                      << ": predict()=" << per_context[g]
                      << " predict_batch()=" << batched[g];
                  return msg.str();
                }
              }
            }
          }
        }
        return std::nullopt;
      },
      describe_group_case);
  ASSERT_TRUE(result.passed) << result.report;
  EXPECT_GE(result.cases_run, 1);
}

// Oracle (b), model level: per-context vs tile-major AutoPowerModel
// predict.
//
// predict_batch, predict_total_batch and predict_trace walk their contexts
// in kTileRows tiles and evaluate the structural sub-models once per run
// of consecutive contexts that share a cfg pointer.  Element i of each
// must equal predict(ctxs[i]) for batch sizes around one and two tiles,
// under layouts that start a run at every kind of row: one long run,
// alternating configs, and runs of 8 (a sweep's cells per config) that
// switch between two distinct HardwareConfig objects holding equal
// values.  The sizes leave every block-tail length the forest walk
// handles: none, 1-3 rows (scalar tail) and 4-15 rows (padded group).

std::optional<std::string> groups_diff(const power::PowerGroups& a,
                                       const power::PowerGroups& b) {
  const double fa[] = {a.clock, a.sram, a.logic_register, a.logic_comb};
  const double fb[] = {b.clock, b.sram, b.logic_register, b.logic_comb};
  const char* const names[] = {"clock", "sram", "logic_register",
                               "logic_comb"};
  for (int g = 0; g < 4; ++g) {
    if (fa[g] != fb[g]) {
      std::ostringstream msg;
      msg.precision(17);
      msg << names[g] << " " << fa[g] << " vs " << fb[g];
      return msg.str();
    }
  }
  return std::nullopt;
}

TEST(DifferentialModel, PerContextVsTiledModelPredictBitIdentical) {
  const auto& c3 = arch::boom_config("C3");
  const arch::HardwareConfig c3_copy = c3;  // equal values, own address
  const auto& c8 = arch::boom_config("C8");
  const auto& wl = workload::workload_by_name("qsort");
  sim::SimOptions opt;
  opt.sample_accesses = 500;
  opt.sample_branches = 500;
  const sim::PerfSimulator sim(opt);
  const auto c3_windows = sim.simulate_trace(c3, wl);
  const auto c8_windows = sim.simulate_trace(c8, wl);
  ASSERT_FALSE(c3_windows.empty());
  ASSERT_FALSE(c8_windows.empty());

  // Layout: the config pointer of row k.
  using Layout = std::function<const arch::HardwareConfig*(std::size_t)>;
  const std::pair<const char*, Layout> layouts[] = {
      {"one config", [&](std::size_t) { return &c8; }},
      {"alternating",
       [&](std::size_t k) { return k % 2 == 0 ? &c3 : &c8; }},
      {"runs of 8, equal-valued copies",
       [&](std::size_t k) {
         const arch::HardwareConfig* run[] = {&c3, &c3_copy, &c8};
         return run[(k / 8) % 3];
       }},
  };
  constexpr std::size_t kTile = core::AutoPowerModel::kTileRows;
  std::vector<std::size_t> sizes;
  for (std::size_t size = 1; size <= 20; ++size) sizes.push_back(size);
  sizes.insert(sizes.end(), {56, 120, 121, 127, kTile - 1, kTile, kTile + 1,
                             2 * kTile + 1});

  Pcg32 pick(20261018);
  const auto program = workload::program_features(wl);
  for (const bool ablation : {false, true}) {
    const auto& model = group_oracle_model(ablation);
    for (const auto& [layout_name, layout] : layouts) {
      for (const std::size_t size : sizes) {
        std::vector<core::EvalContext> batch(size);
        for (std::size_t k = 0; k < size; ++k) {
          auto& ctx = batch[k];
          ctx.cfg = layout(k);
          ctx.workload = wl.name;
          ctx.program = program;
          const auto& windows = ctx.cfg == &c8 ? c8_windows : c3_windows;
          ctx.events = windows[pick.index(windows.size())];
        }
        const auto totals = model.predict_total_batch(batch);
        const auto trace = model.predict_trace(batch);
        const auto full = model.predict_batch(batch);
        ASSERT_EQ(totals.size(), size);
        ASSERT_EQ(trace.size(), size);
        ASSERT_EQ(full.size(), size);
        const std::string where =
            std::string(ablation ? "ablation" : "default") + " model, " +
            layout_name + ", batch " + std::to_string(size);
        for (std::size_t i = 0; i < size; ++i) {
          const auto one = model.predict(batch[i]);
          ASSERT_EQ(totals[i], one.total()) << where << " row " << i;
          ASSERT_EQ(trace[i], one.total()) << where << " row " << i;
          for (std::size_t k = 0; k < arch::kNumComponents; ++k) {
            const auto diff =
                groups_diff(full[i].components[k].groups,
                            one.components[k].groups);
            ASSERT_FALSE(diff.has_value())
                << where << " row " << i << " component "
                << arch::component_name(one.components[k].component)
                << ": predict_batch vs predict " << *diff;
          }
        }
      }
    }
  }
}

// Oracle (b), activity cells: AutoPowerModel keys each component row
// by the ranks of its values against every threshold the component's
// forests test, walks each cell's forests once per ActivityCells table,
// and runs the structural sub-models once per distinct component H.
// Element i of predict_batch and predict_total_batch must equal
// predict(ctxs[i]) exactly.

// Models trained like `autopower train --known ...`: every riscv-tests
// workload at full simulator fidelity, on {C1, C15} (default and
// linear-alpha ablation) and on {C1, C8, C15}.
enum class CellModel { kTwoConfigs, kThreeConfigs, kLinearAlpha };

const core::AutoPowerModel& cell_oracle_model(CellModel which) {
  static const auto* const models = [] {
    const sim::PerfSimulator sim;
    const auto contexts = [&](std::initializer_list<const char*> names) {
      std::vector<core::EvalContext> out;
      for (const char* cfg_name : names) {
        const auto& cfg = arch::boom_config(cfg_name);
        for (const auto& wl : workload::riscv_tests_workloads()) {
          out.push_back({&cfg, wl.name, workload::program_features(wl),
                         sim.simulate(cfg, wl)});
        }
      }
      return out;
    };
    const auto two = contexts({"C1", "C15"});
    const auto three = contexts({"C1", "C8", "C15"});
    core::AutoPowerOptions ablation_opt;
    ablation_opt.clock.linear_alpha = true;
    ablation_opt.sram.program_features = false;
    auto* out = new std::array<core::AutoPowerModel, 3>{
        core::AutoPowerModel{}, core::AutoPowerModel{},
        core::AutoPowerModel{ablation_opt}};
    (*out)[0].train(two, shared_golden(), 1);
    (*out)[1].train(three, shared_golden(), 1);
    (*out)[2].train(two, shared_golden(), 1);
    return out;
  }();
  return (*models)[static_cast<std::size_t>(which)];
}

const char* cell_model_name(CellModel which) {
  return which == CellModel::kTwoConfigs     ? "k=2"
         : which == CellModel::kThreeConfigs ? "k=3"
                                             : "linear alpha";
}

// Per component, per feature of its H+E+P row, every threshold its
// forests test on that feature (NaN left out), sorted and distinct.
std::vector<std::vector<std::vector<double>>> feature_thresholds(
    const core::AutoPowerModel& model) {
  std::vector<std::vector<std::vector<double>>> out;
  for (const arch::ComponentKind comp : arch::all_components()) {
    auto forests = model.clock_model(comp).forests();
    for (const auto& group : {model.sram_model(comp).forests(),
                              model.logic_model(comp).forests()}) {
      forests.insert(forests.end(), group.begin(), group.end());
    }
    auto& per_feature = out.emplace_back(
        arch::component_hw_params(comp).size() +
        arch::component_events(comp).size() + core::kNumProgramFeatures);
    for (const ml::GBTRegressor* forest : forests) {
      for (const ml::RegressionTree& tree : forest->trees()) {
        for (const auto& node : tree.nodes()) {
          if (node.feature >= 0 && !std::isnan(node.threshold)) {
            per_feature[static_cast<std::size_t>(node.feature)].push_back(
                node.threshold);
          }
        }
      }
    }
    for (auto& t : per_feature) {
      std::sort(t.begin(), t.end());
      t.erase(std::unique(t.begin(), t.end()), t.end());
    }
  }
  return out;
}

// Sets events[e] so that events.rate(e) is exactly `target` (any NaN for
// a NaN target), searching a few ulps either side of target * cycles;
// false if no value there divides back to it.
bool set_rate(arch::EventVector& events, arch::EventKind e, double target) {
  const auto lands = [&](double v) {
    events[e] = v;
    const double rate = events.rate(e);
    return std::isnan(target) ? std::isnan(rate)
                              : std::bit_cast<std::uint64_t>(rate) ==
                                    std::bit_cast<std::uint64_t>(target);
  };
  const double start = target * events.cycles();
  if (lands(start)) return true;
  for (const double dir : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    double v = start;
    for (int step = 0; step < 8; ++step) {
      v = std::nextafter(v, dir);
      if (lands(v)) return true;
    }
  }
  return false;
}

// Field k of the P block (core::program_feature_values order).
double& program_field(workload::ProgramFeatures& p, std::size_t k) {
  double* const fields[] = {&p.log_instructions, &p.branch_frac,
                            &p.load_frac,        &p.store_frac,
                            &p.fp_frac,          &p.muldiv_frac,
                            &p.ilp,              &p.branch_entropy,
                            &p.dcache_footprint_kb, &p.icache_footprint_kb};
  return *fields[k];
}

// Component rows and walked cells of predict_total_batch(batch, cells).
struct CellCounts {
  std::uint64_t rows = 0;
  std::uint64_t cells = 0;
};

CellCounts predict_counts(const core::AutoPowerModel& model,
                          std::span<const core::EvalContext> batch,
                          core::ActivityCells* cells = nullptr) {
  auto& registry = util::MetricsRegistry::global();
  const auto& rows = registry.counter("core.predict.rows");
  const auto& walked = registry.counter("core.predict.cells");
  const std::uint64_t rows_before = rows.value();
  const std::uint64_t cells_before = walked.value();
  (void)model.predict_total_batch(batch, cells);
  return {rows.value() - rows_before, walked.value() - cells_before};
}

std::optional<std::string> batch_vs_per_context(
    const core::AutoPowerModel& model,
    std::span<const core::EvalContext> batch) {
  const auto totals = model.predict_total_batch(batch);
  const auto full = model.predict_batch(batch);
  if (totals.size() != batch.size() || full.size() != batch.size()) {
    return "batch output size differs from the batch";
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto one = model.predict(batch[i]);
    if (std::bit_cast<std::uint64_t>(totals[i]) !=
        std::bit_cast<std::uint64_t>(one.total())) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "row " << i << ": predict_total_batch " << totals[i]
          << " vs predict " << one.total();
      return msg.str();
    }
    for (std::size_t k = 0; k < arch::kNumComponents; ++k) {
      if (const auto diff = groups_diff(full[i].components[k].groups,
                                        one.components[k].groups)) {
        return "row " + std::to_string(i) + " component " +
               std::string(arch::component_name(
                   one.components[k].component)) +
               ": predict_batch vs predict " + *diff;
      }
    }
  }
  return std::nullopt;
}

// One case's rows, against predict(ctx), and the counters: a pool of a
// random design's first windows, a few of a second design's, and copies
// with one E rate at a tested threshold, one ulp either side, +-0, NaN or
// +-inf; one H parameter or one P feature either side of a tested
// threshold.  Spans cycle the pool to kTileRows - 1, kTileRows and
// kTileRows + 1 rows.  Rows whose values differ but whose ranks are equal
// (+0/-0, two NaN payloads, one ulp inside an interval) must fold into
// one cell per component; rows across an H or P threshold must not.
TEST(DifferentialModel, ActivityCellsVsPerContextPredictBitIdentical) {
  constexpr std::size_t kTile = core::AutoPowerModel::kTileRows;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t edits_made = 0;
  std::size_t h_edits = 0;
  std::size_t p_edits = 0;
  std::size_t folds_checked = 0;
  const auto result = testcore::run_property<GroupCase>(
      {.name = "core.activity_cells_vs_per_context", .cases = 8},
      [](Pcg32& rng) {
        GroupCase c{testcore::random_hardware_config(rng),
                    testcore::random_hardware_config(rng),
                    testcore::random_workload_profile(rng),
                    testcore::small_sim_options(rng)};
        c.wl.instructions = 20'000 + rng.next_below(20'000);
        c.pick_seed = rng.next_u64();
        return c;
      },
      [&](const GroupCase& c) -> std::optional<std::string> {
        sim::PerfSimulator sim(c.sim_opt);
        const auto program = workload::program_features(c.wl);
        const auto windows = [&](const arch::HardwareConfig& cfg,
                                 std::size_t most) {
          std::vector<core::EvalContext> out;
          for (const auto& events : sim.simulate_trace(cfg, c.wl)) {
            if (out.size() == most) break;
            out.push_back({&cfg, c.wl.name, program, events});
          }
          return out;
        };
        const auto base = windows(c.cfg_a, 64);
        const auto other = windows(c.cfg_b, 8);
        if (base.empty() || other.empty()) {
          return "simulate_trace returned no windows";
        }
        // Configurations one H parameter apart; stable addresses.
        std::deque<arch::HardwareConfig> edited_cfgs;

        for (const CellModel which :
             {CellModel::kTwoConfigs, CellModel::kThreeConfigs,
              CellModel::kLinearAlpha}) {
          const auto& model = cell_oracle_model(which);
          const auto thresholds = feature_thresholds(model);
          const std::string name = cell_model_name(which);
          Pcg32 pick(c.pick_seed);
          auto pool = base;
          pool.insert(pool.end(), other.begin(), other.end());
          const auto random_base = [&] {
            return base[pick.index(base.size())];
          };

          // E edits.
          for (int edit = 0; edit < 32; ++edit) {
            const std::size_t comp = pick.index(arch::kNumComponents);
            const auto component = arch::all_components()[comp];
            const auto events = arch::component_events(component);
            const std::size_t k = pick.index(events.size());
            const auto& t =
                thresholds[comp][arch::component_hw_params(component).size() +
                                 k];
            if (t.empty() || events[k] == arch::EventKind::kCycles) continue;
            const double at = t[pick.index(t.size())];
            const double targets[] = {at,
                                      std::nextafter(at, -kInf),
                                      std::nextafter(at, kInf),
                                      0.0,
                                      -0.0,
                                      std::numeric_limits<double>::quiet_NaN(),
                                      kInf,
                                      -kInf};
            core::EvalContext w = random_base();
            if (!set_rate(w.events, events[k],
                          targets[pick.index(std::size(targets))])) {
              continue;
            }
            pool.push_back(std::move(w));
            ++edits_made;
          }

          // H and P edits: one row either side of a tested threshold.
          std::vector<std::pair<core::EvalContext, core::EvalContext>> across;
          for (std::size_t comp = 0; comp < arch::kNumComponents; ++comp) {
            const auto component = arch::all_components()[comp];
            const auto hw = arch::component_hw_params(component);
            const std::size_t n_he =
                hw.size() + arch::component_events(component).size();
            for (std::size_t f = 0; f < thresholds[comp].size(); ++f) {
              const auto& t = thresholds[comp][f];
              if (t.empty() || (f >= hw.size() && f < n_he)) continue;
              if (pick.index(4) != 0) continue;  // a sample of them
              const double at = t[pick.index(t.size())];
              core::EvalContext lo = random_base();
              core::EvalContext hi = lo;
              if (f < hw.size()) {
                // Integer values below and at-or-above the threshold.
                const int v_hi = static_cast<int>(std::ceil(at));
                std::array<int, arch::kNumHwParams> values{};
                for (const arch::HwParam q : arch::all_hw_params()) {
                  values[static_cast<std::size_t>(q)] = lo.cfg->value(q);
                }
                values[static_cast<std::size_t>(hw[f])] = v_hi - 1;
                lo.cfg = &edited_cfgs.emplace_back("lo", values);
                values[static_cast<std::size_t>(hw[f])] = v_hi;
                hi.cfg = &edited_cfgs.emplace_back("hi", values);
                ++h_edits;
              } else {
                program_field(lo.program, f - n_he) =
                    std::nextafter(at, -kInf);
                program_field(hi.program, f - n_he) = at;
                ++p_edits;
              }
              pool.push_back(lo);
              pool.push_back(hi);
              across.emplace_back(std::move(lo), std::move(hi));
            }
          }

          std::vector<double> expected;
          for (const auto& w : pool) {
            expected.push_back(model.predict(w).total());
          }
          if (auto diff = batch_vs_per_context(model, pool)) {
            return name + ", the pool: " + *diff;
          }
          for (const std::size_t length : {kTile - 1, kTile, kTile + 1}) {
            std::vector<core::EvalContext> span;
            while (span.size() < length) {
              span.push_back(pool[span.size() % pool.size()]);
            }
            const auto got = model.predict_total_batch(span);
            for (std::size_t i = 0; i < length; ++i) {
              if (std::bit_cast<std::uint64_t>(got[i]) !=
                  std::bit_cast<std::uint64_t>(expected[i % pool.size()])) {
                std::ostringstream msg;
                msg.precision(17);
                msg << name << ", span of " << length << " row " << i
                    << ": predict()=" << expected[i % pool.size()]
                    << " predict_total_batch()=" << got[i];
                return msg.str();
              }
            }
            const auto counts = predict_counts(model, span);
            if (counts.rows != length * arch::kNumComponents ||
                counts.cells == 0 ||
                counts.cells > pool.size() * arch::kNumComponents) {
              return name + ", span of " + std::to_string(length) + ": " +
                     std::to_string(counts.cells) + " cells for " +
                     std::to_string(counts.rows) + " rows";
            }
          }

          // Across an H or P threshold: at least one more cell than one
          // per component.
          for (const auto& [lo, hi] : across) {
            const std::vector<core::EvalContext> pair{lo, hi};
            const auto counts = predict_counts(model, pair);
            if (counts.cells <= arch::kNumComponents) {
              return name + ": rows across a threshold share every cell";
            }
          }

          // Equal ranks, different bytes: one cell per component.
          const auto component = arch::all_components()[pick.index(
              arch::kNumComponents)];
          const auto events = arch::component_events(component);
          arch::EventKind event = events[pick.index(events.size())];
          if (event == arch::EventKind::kCycles) event = events.back();
          std::vector<double> all_t;  // every component's thresholds on it
          for (std::size_t comp = 0; comp < arch::kNumComponents; ++comp) {
            const auto ev =
                arch::component_events(arch::all_components()[comp]);
            const auto at = std::find(ev.begin(), ev.end(), event);
            if (at == ev.end()) continue;
            const auto& t = thresholds[comp]
                                      [arch::component_hw_params(
                                           arch::all_components()[comp])
                                           .size() +
                                       static_cast<std::size_t>(at - ev.begin())];
            all_t.insert(all_t.end(), t.begin(), t.end());
          }
          std::sort(all_t.begin(), all_t.end());
          const core::EvalContext w = random_base();
          const double rate = w.events.rate(event);
          const double nudged = std::nextafter(rate, kInf);
          const bool same_interval =
              std::isfinite(nudged) &&
              std::upper_bound(all_t.begin(), all_t.end(), rate) ==
                  std::upper_bound(all_t.begin(), all_t.end(), nudged) &&
              std::find(all_t.begin(), all_t.end(), nudged) == all_t.end();
          std::vector<std::pair<const char*, std::array<double, 2>>> folds = {
              {"+0/-0", {0.0, -0.0}},
              {"two NaN payloads",
               {std::numeric_limits<double>::quiet_NaN(),
                -std::numeric_limits<double>::quiet_NaN()}}};
          if (same_interval) folds.push_back({"one ulp apart", {rate, nudged}});
          for (const auto& [what, values] : folds) {
            std::vector<core::EvalContext> pair{w, w};
            if (!set_rate(pair[0].events, event, values[0]) ||
                !set_rate(pair[1].events, event, values[1])) {
              continue;
            }
            if (auto diff = batch_vs_per_context(model, pair)) {
              return name + ", " + what + ": " + *diff;
            }
            const auto counts = predict_counts(model, pair);
            if (counts.cells != arch::kNumComponents) {
              return name + ", " + what + " in " +
                     std::string(arch::event_name(event)) + ": " +
                     std::to_string(counts.cells) + " cells, want one per "
                     "component";
            }
            ++folds_checked;
          }
        }
        return std::nullopt;
      },
      describe_group_case);
  ASSERT_TRUE(result.passed) << result.report;
  EXPECT_GE(result.cases_run, 1);
  EXPECT_GT(edits_made, 0U) << "no event rate could be set to a target";
  EXPECT_GT(h_edits, 0U) << "no H threshold was crossed";
  EXPECT_GT(p_edits, 0U) << "no P threshold was crossed";
  EXPECT_GT(folds_checked, 0U) << "no equal-rank rows were folded";
}

// Oracle (b), duplicate rows: element i of predict_batch and
// predict_total_batch must equal predict(ctxs[i]) on batches built to
// repeat rows: a few contexts repeated in scrambled order, all-distinct
// rows, 512 identical rows, configurations that differ only outside a
// component's H, and rows that differ only by +0.0/-0.0 in one E
// feature.  The counters show that repeated rows walk one cell each, and
// that the signed zeros, equal in rank, share one cell per component.
TEST(DifferentialModel, DuplicateRowsVsPerContextPredictBitIdentical) {
  const auto& c3 = arch::boom_config("C3");
  const auto& c8 = arch::boom_config("C8");
  const auto& wl = workload::workload_by_name("qsort");
  sim::SimOptions opt;
  opt.sample_accesses = 500;
  opt.sample_branches = 500;
  const sim::PerfSimulator sim(opt);
  const auto program = workload::program_features(wl);
  std::vector<core::EvalContext> pool;
  for (const auto* cfg : {&c3, &c8}) {
    for (const auto& window : sim.simulate_trace(*cfg, wl)) {
      pool.push_back({cfg, wl.name, program, window});
    }
  }
  ASSERT_GE(pool.size(), 8u);

  // Every HwParam moved on its own: C8 and a copy one step away on p.
  std::vector<arch::HardwareConfig> moved;
  for (const arch::HwParam p : arch::all_hw_params()) {
    std::array<int, arch::kNumHwParams> values{};
    for (const arch::HwParam q : arch::all_hw_params()) {
      values[static_cast<std::size_t>(q)] = c8.value(q);
    }
    values[static_cast<std::size_t>(p)] += 1;
    moved.emplace_back(std::string("C8+") +
                           std::string(arch::hw_param_name(p)),
                       values);
  }

  constexpr std::size_t kTile = core::AutoPowerModel::kTileRows;
  const std::size_t sizes[] = {1, 63, 64, 65, kTile - 1, kTile + 1};
  Pcg32 pick(20261019);
  for (const bool ablation : {false, true}) {
    const auto& model = group_oracle_model(ablation);
    const std::string which = ablation ? "ablation model" : "default model";

    // A few distinct contexts, each drawn many times.
    for (const std::size_t size : sizes) {
      std::vector<core::EvalContext> distinct;
      for (int k = 0; k < 5; ++k) {
        distinct.push_back(pool[pick.index(pool.size())]);
      }
      std::vector<core::EvalContext> batch;
      for (std::size_t k = 0; k < size; ++k) {
        batch.push_back(distinct[pick.index(distinct.size())]);
      }
      const auto diff = batch_vs_per_context(model, batch);
      ASSERT_FALSE(diff.has_value())
          << which << ", repeated contexts, batch " << size << ": " << *diff;
      const auto counts = predict_counts(model, batch);
      EXPECT_EQ(counts.rows, size * arch::kNumComponents);
      EXPECT_GT(counts.cells, 0u);
      EXPECT_LE(counts.cells, distinct.size() * arch::kNumComponents)
          << which << ", repeated contexts, batch " << size;
    }

    // All-distinct rows: every context's P block is its own.
    for (const std::size_t size : sizes) {
      std::vector<core::EvalContext> batch;
      for (std::size_t k = 0; k < size; ++k) {
        batch.push_back(pool[k % pool.size()]);
        batch.back().program.log_instructions +=
            1e-3 * static_cast<double>(k);
      }
      const auto diff = batch_vs_per_context(model, batch);
      ASSERT_FALSE(diff.has_value())
          << which << ", distinct rows, batch " << size << ": " << *diff;
      const auto counts = predict_counts(model, batch);
      EXPECT_EQ(counts.rows, size * arch::kNumComponents);
      EXPECT_GT(counts.cells, 0u);
      EXPECT_LE(counts.cells, counts.rows)
          << which << ", distinct rows, batch " << size;
    }

    // 512 identical rows: each component walks one cell.
    {
      const std::vector<core::EvalContext> batch(kTile, pool.front());
      const auto diff = batch_vs_per_context(model, batch);
      ASSERT_FALSE(diff.has_value())
          << which << ", 512 identical rows: " << *diff;
      const auto counts = predict_counts(model, batch);
      EXPECT_EQ(counts.rows, kTile * arch::kNumComponents);
      EXPECT_EQ(counts.cells, arch::kNumComponents);
    }

    // Configurations that differ only in one parameter: the components
    // whose H omits it see equal rows under two cfg pointers.
    for (std::size_t p = 0; p < moved.size(); ++p) {
      std::vector<core::EvalContext> batch;
      for (int k = 0; k < 6; ++k) {
        core::EvalContext ctx = pool[pick.index(pool.size())];
        ctx.cfg = k % 2 == 0 ? &c8 : &moved[p];
        batch.push_back(ctx);
        ctx.cfg = k % 2 == 0 ? &moved[p] : &c8;
        batch.push_back(std::move(ctx));
      }
      const auto diff = batch_vs_per_context(model, batch);
      ASSERT_FALSE(diff.has_value())
          << which << ", C8 vs " << moved[p].name() << ": " << *diff;
      const auto param = static_cast<arch::HwParam>(p);
      std::uint64_t readers = 0;
      for (const arch::ComponentKind c : arch::all_components()) {
        const auto h = arch::component_hw_params(c);
        readers += std::find(h.begin(), h.end(), param) != h.end();
      }
      if (readers < arch::kNumComponents) {
        const auto counts = predict_counts(model, batch);
        EXPECT_LT(counts.cells, counts.rows)
            << which << ", C8 vs " << moved[p].name();
      }
    }

    // +0.0 vs -0.0 in one E feature: distinct bytes, equal ranks, so
    // every component walks one cell for both rows.
    const arch::ComponentKind comp = arch::all_components().front();
    arch::EventKind event = arch::component_events(comp).front();
    if (event == arch::EventKind::kCycles) {
      event = arch::component_events(comp)[1];
    }
    std::vector<core::EvalContext> batch(2, pool.front());
    batch[0].events[event] = 0.0;
    batch[1].events[event] = -0.0;
    const auto diff = batch_vs_per_context(model, batch);
    ASSERT_FALSE(diff.has_value()) << which << ", signed zeros: " << *diff;
    const auto counts = predict_counts(model, batch);
    EXPECT_EQ(counts.rows, 2 * arch::kNumComponents);
    EXPECT_EQ(counts.cells, arch::kNumComponents)
        << which << ", signed zeros in " << arch::event_name(event);
  }
}

// Oracle (b), trace level: predict_trace vs per-window predict.
//
// The oracle builds a pool of source windows: the first windows of a
// random design's trace, plus copies with one event rate set to exactly
// a threshold the model tests, one ulp either side of it, +0, -0, NaN,
// +inf, or above the component's top threshold.  Traces cycle the pool
// to kTileRows - 1, kTileRows, kTileRows + 1 and 4,000 windows and must
// walk fewer cells than component rows; a span mixing two configurations
// and one mixing two programs must walk no more cells than rows.  Every
// element must equal predict(window).total() exactly, for the k=2, k=3
// and linear-alpha models.

constexpr std::size_t kTraceLengths[] = {core::AutoPowerModel::kTileRows - 1,
                                         core::AutoPowerModel::kTileRows,
                                         core::AutoPowerModel::kTileRows + 1,
                                         4000};

TEST(DifferentialModel, TraceCellsVsPerWindowPredictBitIdentical) {
  auto& registry = util::MetricsRegistry::global();
  const auto& predict_rows = registry.counter("core.predict.rows");
  const auto& predict_cells = registry.counter("core.predict.cells");
  std::size_t edits_made = 0;
  const auto result = testcore::run_property<GroupCase>(
      {.name = "core.trace_cells_vs_per_window", .cases = 8},
      [](Pcg32& rng) {
        GroupCase c{testcore::random_hardware_config(rng),
                    testcore::random_hardware_config(rng),
                    testcore::random_workload_profile(rng),
                    testcore::small_sim_options(rng)};
        c.wl.instructions = 20'000 + rng.next_below(20'000);
        c.pick_seed = rng.next_u64();
        return c;
      },
      [&](const GroupCase& c) -> std::optional<std::string> {
        sim::PerfSimulator sim(c.sim_opt);
        const auto program = workload::program_features(c.wl);
        auto other_program = program;
        other_program.ilp += 0.5;
        const auto windows = [&](const arch::HardwareConfig& cfg) {
          std::vector<core::EvalContext> out;
          for (const auto& events : sim.simulate_trace(cfg, c.wl)) {
            out.push_back({&cfg, c.wl.name, program, events});
          }
          return out;
        };
        auto base = windows(c.cfg_a);
        if (base.empty()) return "simulate_trace returned no windows";
        base.resize(std::min<std::size_t>(base.size(), 64));

        for (const CellModel which :
             {CellModel::kTwoConfigs, CellModel::kThreeConfigs,
              CellModel::kLinearAlpha}) {
          const auto& model = cell_oracle_model(which);
          const auto thresholds = feature_thresholds(model);
          // The source pool: the base windows, then 32 edited copies.
          Pcg32 pick(c.pick_seed);
          auto pool = base;
          for (int edit = 0; edit < 32; ++edit) {
            const std::size_t comp = pick.index(arch::kNumComponents);
            const auto component = arch::all_components()[comp];
            const auto events = arch::component_events(component);
            const std::size_t k = pick.index(events.size());
            const auto& t =
                thresholds[comp][arch::component_hw_params(component).size() +
                                 k];
            if (t.empty() || events[k] == arch::EventKind::kCycles) continue;
            const double at = t[pick.index(t.size())];
            const double targets[] = {
                at,
                std::nextafter(at, -std::numeric_limits<double>::infinity()),
                std::nextafter(at, std::numeric_limits<double>::infinity()),
                0.0,
                -0.0,
                std::numeric_limits<double>::quiet_NaN(),
                std::numeric_limits<double>::infinity(),
                t.back() + std::abs(t.back()) + 1.0};
            core::EvalContext w = base[pick.index(base.size())];
            if (!set_rate(w.events, events[k],
                          targets[pick.index(std::size(targets))])) {
              continue;
            }
            pool.push_back(std::move(w));
            ++edits_made;
          }
          std::vector<double> expected;
          for (const auto& w : pool) {
            expected.push_back(model.predict(w).total());
          }

          const auto check = [&](const char* what,
                                 std::span<const core::EvalContext> span,
                                 std::span<const double> want,
                                 bool folds) -> std::optional<std::string> {
            const auto rows_before = predict_rows.value();
            const auto cells_before = predict_cells.value();
            const auto got = model.predict_trace(span);
            const auto n_rows = predict_rows.value() - rows_before;
            const auto n_cells = predict_cells.value() - cells_before;
            std::ostringstream msg;
            msg.precision(17);
            msg << cell_model_name(which) << ", " << what << " of "
                << span.size() << ": ";
            if (got.size() != span.size()) {
              msg << got.size() << " totals";
              return msg.str();
            }
            if (n_rows != arch::kNumComponents * span.size() ||
                n_cells == 0 ||
                n_cells > arch::kNumComponents *
                              std::min(span.size(), pool.size()) ||
                (folds && n_cells >= n_rows)) {
              msg << n_cells << " cells for " << n_rows << " rows";
              return msg.str();
            }
            for (std::size_t i = 0; i < span.size(); ++i) {
              const double one = want[i % want.size()];
              if (std::bit_cast<std::uint64_t>(got[i]) ==
                  std::bit_cast<std::uint64_t>(one)) {
                continue;
              }
              msg << "window " << i << ": predict()=" << one
                  << " predict_trace()=" << got[i];
              return msg.str();
            }
            return std::nullopt;
          };

          for (const std::size_t length : kTraceLengths) {
            std::vector<core::EvalContext> trace;
            while (trace.size() < length) {
              trace.push_back(pool[trace.size() % pool.size()]);
            }
            if (auto diff = check("single-config trace", trace, expected,
                                  true)) {
              return diff;
            }
          }
          // Mixed spans: the pool with a random window swapped for a
          // window of the other configuration or program.
          for (const bool swap_config : {true, false}) {
            auto mixed = pool;
            auto want = expected;
            const std::size_t at = pick.index(pool.size());
            if (swap_config) {
              mixed[at] = windows(c.cfg_b).front();
            } else {
              mixed[at].program = other_program;
            }
            want[at] = model.predict(mixed[at]).total();
            if (auto diff = check(swap_config ? "mixed-config span"
                                              : "mixed-program span",
                                  mixed, want, false)) {
              return diff;
            }
          }
        }
        return std::nullopt;
      },
      describe_group_case);
  ASSERT_TRUE(result.passed) << result.report;
  EXPECT_GE(result.cases_run, 1);
  EXPECT_GT(edits_made, 0U) << "no event rate could be set to a target";
}

// A pool of held-out contexts: the first 64 windows of C3 and C8 on two
// workloads, each config also under a copy at its own address.
std::vector<core::EvalContext> shared_cells_pool(
    const std::array<arch::HardwareConfig, 2>& copies) {
  const sim::PerfSimulator sim;
  std::vector<core::EvalContext> pool;
  for (const char* wl_name : {"qsort", "vvadd"}) {
    const auto& wl = workload::workload_by_name(wl_name);
    for (std::size_t k = 0; k < copies.size(); ++k) {
      const auto& cfg = arch::boom_config(k == 0 ? "C3" : "C8");
      const auto trace = sim.simulate_trace(cfg, wl);
      for (std::size_t w = 0; w < std::min<std::size_t>(trace.size(), 64);
           ++w) {
        pool.push_back({&cfg, wl.name, workload::program_features(wl),
                        trace[w]});
        pool.push_back(pool.back());
        pool.back().cfg = &copies[k];
      }
    }
  }
  return pool;
}

// Four threads share one ActivityCells table over overlapping spans of
// one pool, each span cycling the whole pool from its own offset, so the
// threads look up and insert the same cells concurrently.  Every total must equal
// predict(ctx).total(), and a later call on the filled table walks no
// cell.
TEST(DifferentialModel, SharedCellsAcrossThreadsBitIdentical) {
  const auto& model = cell_oracle_model(CellModel::kThreeConfigs);
  const std::array<arch::HardwareConfig, 2> copies = {
      arch::boom_config("C3"), arch::boom_config("C8")};
  const auto pool = shared_cells_pool(copies);
  ASSERT_GE(pool.size(), 64u);
  std::vector<double> expected;
  for (const auto& ctx : pool) expected.push_back(model.predict(ctx).total());

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kSpan = core::AutoPowerModel::kTileRows + 1;
  core::ActivityCells cells(model);
  std::array<std::size_t, kThreads> mismatches{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t rep = 0; rep < 6; ++rep) {
        const std::size_t first = (t * 37 + rep * 101) % pool.size();
        std::vector<core::EvalContext> span;
        std::vector<double> want;
        for (std::size_t k = 0; k < kSpan; ++k) {
          span.push_back(pool[(first + k) % pool.size()]);
          want.push_back(expected[(first + k) % pool.size()]);
        }
        const auto got = model.predict_total_batch(span, &cells);
        for (std::size_t k = 0; k < kSpan; ++k) {
          mismatches[t] += std::bit_cast<std::uint64_t>(got[k]) !=
                           std::bit_cast<std::uint64_t>(want[k]);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  for (const arch::ComponentKind c : arch::all_components()) {
    EXPECT_GE(cells.size(c), 1u) << arch::component_name(c);
    EXPECT_LE(cells.size(c), core::ActivityCells::kCapacity);
  }
  // Every pool row's cell is in the table now.
  const auto counts = predict_counts(model, pool, &cells);
  EXPECT_EQ(counts.rows, pool.size() * arch::kNumComponents);
  EXPECT_EQ(counts.cells, 0u);
}

// A table filled past kCapacity: contexts with every tested event rate
// drawn at random between the thresholds of the forests, so their cells
// are mostly distinct.  Outputs stay bit-identical to predict(ctx), the
// table stops at kCapacity cells per component, and a second call on the
// full table neither grows it nor changes an output.
TEST(DifferentialModel, FullCellTableStaysBitIdentical) {
  const auto& model = cell_oracle_model(CellModel::kThreeConfigs);
  const auto thresholds = feature_thresholds(model);
  // Per event, the thresholds any component tests on it.
  std::vector<std::vector<double>> per_event(arch::kNumEvents);
  for (std::size_t comp = 0; comp < arch::kNumComponents; ++comp) {
    const auto component = arch::all_components()[comp];
    const auto events = arch::component_events(component);
    const std::size_t n_h = arch::component_hw_params(component).size();
    for (std::size_t k = 0; k < events.size(); ++k) {
      const auto& t = thresholds[comp][n_h + k];
      auto& u = per_event[static_cast<std::size_t>(events[k])];
      u.insert(u.end(), t.begin(), t.end());
    }
  }
  for (auto& u : per_event) {
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
  }

  const sim::PerfSimulator sim;
  const auto& cfg = arch::boom_config("C8");
  const auto& wl = workload::workload_by_name("qsort");
  const core::EvalContext base{&cfg, wl.name, workload::program_features(wl),
                               sim.simulate(cfg, wl)};
  Pcg32 rng(20261020);
  std::vector<core::EvalContext> batch;
  for (std::size_t n = 0; n < core::ActivityCells::kCapacity + 1000; ++n) {
    core::EvalContext ctx = base;
    for (std::size_t e = 0; e < arch::kNumEvents; ++e) {
      const auto& u = per_event[e];
      const auto kind = static_cast<arch::EventKind>(e);
      if (u.empty() || kind == arch::EventKind::kCycles) continue;
      // A value inside interval k of the sorted thresholds.
      const std::size_t k = rng.index(u.size() + 1);
      const double rate = k == 0          ? u.front() - 1.0
                          : k == u.size() ? u.back() + 1.0
                                          : 0.5 * (u[k - 1] + u[k]);
      ctx.events[kind] = rate * ctx.events.cycles();
    }
    batch.push_back(std::move(ctx));
  }

  core::ActivityCells cells(model);
  const auto first = model.predict_total_batch(batch, &cells);
  std::size_t full = 0;
  std::array<std::size_t, arch::kNumComponents> sizes{};
  for (const arch::ComponentKind c : arch::all_components()) {
    const std::size_t size = cells.size(c);
    EXPECT_LE(size, core::ActivityCells::kCapacity);
    full += size == core::ActivityCells::kCapacity;
    sizes[static_cast<std::size_t>(c)] = size;
  }
  ASSERT_GT(full, 0u) << "no component's table reached kCapacity";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(first[i]),
              std::bit_cast<std::uint64_t>(model.predict(batch[i]).total()))
        << "row " << i;
  }

  std::reverse(batch.begin(), batch.end());
  const auto second = model.predict_total_batch(batch, &cells);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(second[i]),
              std::bit_cast<std::uint64_t>(first[batch.size() - 1 - i]))
        << "row " << i;
  }
  for (const arch::ComponentKind c : arch::all_components()) {
    EXPECT_EQ(cells.size(c), sizes[static_cast<std::size_t>(c)])
        << arch::component_name(c);
  }
}

// ---------------------------------------------------------------------
// Oracle (c): cold vs memoized / shared-cache simulation.

struct SimCase {
  arch::HardwareConfig cfg;
  workload::WorkloadProfile wl;
  sim::SimOptions opt;
};

std::string describe_sim_case(const SimCase& c) {
  std::ostringstream out;
  out << "config " << c.cfg.name() << " [";
  for (const arch::HwParam p : arch::all_hw_params()) {
    out << c.cfg.value(p) << " ";
  }
  out << "], workload " << c.wl.name << " (" << c.wl.phases.size()
      << " phases, " << c.wl.instructions << " instrs), samples="
      << c.opt.sample_accesses << "/" << c.opt.sample_branches
      << " window=" << c.opt.window_cycles;
  return out.str();
}

TEST(DifferentialSim, ColdVsMemoizedSimulateBitIdentical) {
  const auto result = testcore::run_property<SimCase>(
      {.name = "sim.cold_vs_memoized", .cases = 200},
      [](Pcg32& rng) {
        SimCase c{testcore::random_hardware_config(rng),
                  testcore::random_workload_profile(rng),
                  testcore::small_sim_options(rng)};
        // Keep the trace window count bounded for the trace comparison.
        c.wl.instructions = 20'000 + rng.next_below(20'000);
        return c;
      },
      [](const SimCase& c) -> std::optional<std::string> {
        sim::PerfSimulator cold(c.opt);
        const auto ev_cold = cold.simulate(c.cfg, c.wl);

        // Same instance again: every structural measurement is a hit.
        const auto ev_memo = cold.simulate(c.cfg, c.wl);
        if (auto d = events_diff(ev_cold, ev_memo, "warm repeat")) {
          return d;
        }

        // Second instance sharing the structural cache: every structural
        // measurement is a hit, the composition recomputes.
        sim::PerfSimulator shared(c.opt, cold.structural_cache());
        const auto ev_shared = shared.simulate(c.cfg, c.wl);
        if (auto d = events_diff(ev_cold, ev_shared, "shared structural")) {
          return d;
        }

        // Trace path: fresh-cache vs warm shared-cache windows.
        const auto trace_warm = shared.simulate_trace(c.cfg, c.wl);
        sim::PerfSimulator fresh(c.opt);
        const auto trace_cold = fresh.simulate_trace(c.cfg, c.wl);
        if (trace_cold.size() != trace_warm.size()) {
          return "trace window counts differ";
        }
        for (std::size_t w = 0; w < trace_cold.size(); ++w) {
          if (auto d = events_diff(trace_cold[w], trace_warm[w],
                                   "trace window " + std::to_string(w))) {
            return d;
          }
        }
        return std::nullopt;
      },
      describe_sim_case);
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Oracle (d): serial vs multi-threaded train / batch / sweep.

struct ParallelCase {
  arch::HardwareConfig cfg_a;
  arch::HardwareConfig cfg_b;
  workload::WorkloadProfile wl_a;
  workload::WorkloadProfile wl_b;
  sim::SimOptions sim_opt;
};

std::string describe_parallel_case(const ParallelCase& c) {
  std::ostringstream out;
  out << "configs " << c.cfg_a.name() << "/" << c.cfg_b.name()
      << ", workloads " << c.wl_a.name << "/" << c.wl_b.name;
  return out.str();
}

TEST(DifferentialParallel, SerialVsThreadedTrainByteIdentical) {
  const auto result = testcore::run_property<ParallelCase>(
      {.name = "train.serial_vs_threaded", .cases = 200},
      [](Pcg32& rng) {
        ParallelCase c{testcore::random_hardware_config(rng),
                       testcore::random_hardware_config(rng),
                       testcore::random_workload_profile(rng),
                       testcore::random_workload_profile(rng),
                       testcore::small_sim_options(rng)};
        c.wl_a.instructions = 20'000 + rng.next_below(20'000);
        c.wl_b.instructions = 20'000 + rng.next_below(20'000);
        return c;
      },
      [](const ParallelCase& c) -> std::optional<std::string> {
        sim::PerfSimulator sim(c.sim_opt);
        std::vector<core::EvalContext> ctxs;
        for (const auto* cfg : {&c.cfg_a, &c.cfg_b}) {
          for (const auto* wl : {&c.wl_a, &c.wl_b}) {
            core::EvalContext ctx;
            ctx.cfg = cfg;
            ctx.workload = wl->name;
            ctx.program = workload::program_features(*wl);
            ctx.events = sim.simulate(*cfg, *wl);
            ctxs.push_back(std::move(ctx));
          }
        }

        core::AutoPowerModel serial(tiny_autopower_options());
        serial.train(ctxs, shared_golden(), 1);
        core::AutoPowerModel threaded(tiny_autopower_options());
        threaded.train(ctxs, shared_golden(), 4);
        if (model_archive(serial) != model_archive(threaded)) {
          return "threads=1 and threads=4 training archives differ";
        }
        return std::nullopt;
      },
      describe_parallel_case);
  ASSERT_TRUE(result.passed) << result.report;
}

// The engines and the sweep model persist across cases: their memo
// layers survive run() calls by design, and the determinism contract
// explicitly covers pre-warmed caches — so warm-state comparisons are
// part of what this oracle checks.
class EngineInvariance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SimOptions opt;
    opt.sample_accesses = 500;
    opt.sample_branches = 500;
    sim::PerfSimulator sim(opt);
    std::vector<core::EvalContext> ctxs;
    for (const char* cfg_name : {"C1", "C15"}) {
      const auto& cfg = arch::boom_config(cfg_name);
      for (const char* wl_name : {"dhrystone", "qsort"}) {
        const auto& wl = workload::workload_by_name(wl_name);
        core::EvalContext ctx;
        ctx.cfg = &cfg;
        ctx.workload = wl.name;
        ctx.program = workload::program_features(wl);
        ctx.events = sim.simulate(cfg, wl);
        ctxs.push_back(std::move(ctx));
      }
    }
    auto model =
        std::make_shared<core::AutoPowerModel>(tiny_autopower_options());
    model->train(ctxs, shared_golden(), 1);
    model_ = new std::shared_ptr<const core::AutoPowerModel>(model);
    serial_ = new serve::BatchEngine(*model_, {.threads = 1});
    threaded_ = new serve::BatchEngine(*model_, {.threads = 3});
    sweep_structural_serial_ =
        new std::shared_ptr<util::StructuralSimCache>(
            std::make_shared<util::StructuralSimCache>());
    sweep_structural_threaded_ =
        new std::shared_ptr<util::StructuralSimCache>(
            std::make_shared<util::StructuralSimCache>());
  }
  static void TearDownTestSuite() {
    delete sweep_structural_threaded_;
    delete sweep_structural_serial_;
    delete threaded_;
    delete serial_;
    delete model_;
  }

  static std::shared_ptr<const core::AutoPowerModel>* model_;
  static serve::BatchEngine* serial_;
  static serve::BatchEngine* threaded_;
  static std::shared_ptr<util::StructuralSimCache>* sweep_structural_serial_;
  static std::shared_ptr<util::StructuralSimCache>*
      sweep_structural_threaded_;
};

std::shared_ptr<const core::AutoPowerModel>* EngineInvariance::model_ =
    nullptr;
serve::BatchEngine* EngineInvariance::serial_ = nullptr;
serve::BatchEngine* EngineInvariance::threaded_ = nullptr;
std::shared_ptr<util::StructuralSimCache>*
    EngineInvariance::sweep_structural_serial_ = nullptr;
std::shared_ptr<util::StructuralSimCache>*
    EngineInvariance::sweep_structural_threaded_ = nullptr;

std::optional<std::string> responses_diff(
    const std::vector<serve::BatchResponse>& a,
    const std::vector<serve::BatchResponse>& b) {
  if (a.size() != b.size()) return "response counts differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    std::ostringstream msg;
    msg << "response " << i << " (" << x.config << "/" << x.workload
        << "): ";
    if (x.index != y.index || x.config != y.config ||
        x.workload != y.workload || x.mode != y.mode) {
      msg << "identity fields differ";
      return msg.str();
    }
    if (x.ok != y.ok || x.error != y.error) {
      msg << "ok/error differ: '" << x.error << "' vs '" << y.error << "'";
      return msg.str();
    }
    if (x.total_mw != y.total_mw) {
      msg << "total_mw " << x.total_mw << " vs " << y.total_mw;
      return msg.str();
    }
    if (x.trace_mw != y.trace_mw) {
      msg << "trace_mw differs";
      return msg.str();
    }
    if (x.components.size() != y.components.size()) {
      msg << "component counts differ";
      return msg.str();
    }
    for (std::size_t j = 0; j < x.components.size(); ++j) {
      const auto& cx = x.components[j];
      const auto& cy = y.components[j];
      if (cx.component != cy.component || cx.clock_mw != cy.clock_mw ||
          cx.sram_mw != cy.sram_mw || cx.logic_mw != cy.logic_mw ||
          cx.total_mw != cy.total_mw) {
        msg << "component " << cx.component << " differs";
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

std::string describe_batch(const std::vector<serve::BatchRequest>& batch) {
  std::ostringstream out;
  out << batch.size() << " requests:";
  for (const auto& r : batch) {
    out << " " << r.config << "/" << r.workload << "/"
        << serve::to_string(r.mode);
  }
  return out.str();
}

TEST_F(EngineInvariance, SerialVsThreadedBatchBitIdentical) {
  const auto result =
      testcore::run_property<std::vector<serve::BatchRequest>>(
          {.name = "engine.serial_vs_threaded", .cases = 200},
          [](Pcg32& rng) {
            return testcore::random_request_batch(rng, 6,
                                                  /*include_invalid=*/true);
          },
          [](const std::vector<serve::BatchRequest>& batch)
              -> std::optional<std::string> {
            return responses_diff(serial_->run(batch),
                                  threaded_->run(batch));
          },
          describe_batch);
  ASSERT_TRUE(result.passed) << result.report;
}

struct SweepCase {
  serve::SweepSpec spec;
};

std::string describe_sweep(const SweepCase& c) {
  std::ostringstream out;
  out << "base " << c.spec.base << ", axes";
  for (const auto& axis : c.spec.axes) {
    out << " " << arch::hw_param_name(axis.param) << "=";
    for (const int v : axis.values) out << v << ",";
  }
  out << " workloads";
  for (const auto& w : c.spec.workloads) out << " " << w;
  return out.str();
}

std::optional<std::string> sweep_reports_diff(const serve::SweepReport& a,
                                              const serve::SweepReport& b) {
  if (a.configs != b.configs || a.evaluations != b.evaluations) {
    return "sweep sizes differ";
  }
  if (a.rows.size() != b.rows.size()) return "row counts differ";
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const auto& x = a.rows[i];
    const auto& y = b.rows[i];
    if (!(x.config == y.config)) {
      return "row " + std::to_string(i) + " config differs";
    }
    if (x.rank != y.rank || x.mean_total_mw != y.mean_total_mw ||
        x.mean_ipc != y.mean_ipc || x.ipc_per_watt != y.ipc_per_watt) {
      return "row " + std::to_string(i) + " metrics differ";
    }
    if (x.cells.size() != y.cells.size()) {
      return "row " + std::to_string(i) + " cell counts differ";
    }
    for (std::size_t j = 0; j < x.cells.size(); ++j) {
      const auto& cx = x.cells[j];
      const auto& cy = y.cells[j];
      if (cx.workload != cy.workload || cx.ok != cy.ok ||
          cx.error != cy.error || cx.total_mw != cy.total_mw ||
          cx.ipc != cy.ipc) {
        return "row " + std::to_string(i) + " cell " + std::to_string(j) +
               " differs";
      }
    }
  }
  return std::nullopt;
}

TEST_F(EngineInvariance, SerialVsThreadedSweepBitIdentical) {
  const auto result = testcore::run_property<SweepCase>(
      {.name = "sweep.serial_vs_threaded", .cases = 200},
      [](Pcg32& rng) {
        SweepCase c;
        const auto& space = arch::boom_design_space();
        c.spec.base = space[rng.index(space.size())].name();
        // One axis, two values drawn from that axis's design-space pool.
        const auto params = arch::all_hw_params();
        const arch::HwParam param = params[rng.index(params.size())];
        std::vector<int> pool;
        for (const auto& cfg : space) {
          const int v = cfg.value(param);
          bool seen = false;
          for (const int u : pool) seen = seen || u == v;
          if (!seen) pool.push_back(v);
        }
        serve::SweepAxis axis{param, {}};
        axis.values.push_back(pool[rng.index(pool.size())]);
        axis.values.push_back(pool[rng.index(pool.size())]);
        c.spec.axes.push_back(std::move(axis));
        const auto& workloads = workload::riscv_tests_workloads();
        c.spec.workloads = {workloads[rng.index(workloads.size())].name};
        const int metric = rng.next_int(0, 2);
        c.spec.metric = metric == 0   ? serve::SweepMetric::kIpcPerWatt
                        : metric == 1 ? serve::SweepMetric::kIpc
                                      : serve::SweepMetric::kPower;
        return c;
      },
      [](const SweepCase& c) -> std::optional<std::string> {
        serve::SweepSpec serial_spec = c.spec;
        serial_spec.threads = 1;
        serve::SweepSpec threaded_spec = c.spec;
        threaded_spec.threads = 3;
        const auto serial_report = serve::run_sweep(
            **model_, serial_spec, *sweep_structural_serial_);
        const auto threaded_report = serve::run_sweep(
            **model_, threaded_spec, *sweep_structural_threaded_);
        return sweep_reports_diff(serial_report, threaded_report);
      },
      describe_sweep);
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Oracle: SIGKILL-mid-sweep -> resume bit-identity.  A kill leaves the
// checkpoint file as a byte prefix of what an uninterrupted run writes
// (appends + batched fsync, possibly torn mid-line), so truncating a
// finished checkpoint at a random offset reproduces every possible kill
// point — including inside the header and inside a row.  Resuming from
// that prefix must yield a report byte-identical to the uninterrupted
// run's, for any thread count, metric and top-k.

struct ResumeCase {
  serve::SweepSpec spec;
  double cut_frac = 0.0;  ///< where the "kill" lands, as a file fraction
};

std::string describe_resume(const ResumeCase& c) {
  std::ostringstream out;
  out << describe_sweep({c.spec}) << ", threads " << c.spec.threads
      << ", top " << c.spec.top << ", cut at "
      << static_cast<int>(c.cut_frac * 100.0) << "%";
  return out.str();
}

std::string report_bytes(const serve::SweepReport& report) {
  std::ostringstream out;
  serve::write_sweep_report(out, report);
  return out.str();
}

TEST_F(EngineInvariance, TruncatedCheckpointResumeBitIdentical) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("autopower_resume_diff_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / "sweep.ckpt").string();

  const auto result = testcore::run_property<ResumeCase>(
      {.name = "sweep.truncated_resume", .cases = 200},
      [](Pcg32& rng) {
        ResumeCase c;
        const auto& space = arch::boom_design_space();
        c.spec.base = space[rng.index(space.size())].name();
        const auto params = arch::all_hw_params();
        const arch::HwParam param = params[rng.index(params.size())];
        std::vector<int> pool;
        for (const auto& cfg : space) {
          const int v = cfg.value(param);
          bool seen = false;
          for (const int u : pool) seen = seen || u == v;
          if (!seen) pool.push_back(v);
        }
        serve::SweepAxis axis{param, {}};
        for (int i = 0; i < 3; ++i) {
          axis.values.push_back(pool[rng.index(pool.size())]);
        }
        c.spec.axes.push_back(std::move(axis));
        const auto& workloads = workload::riscv_tests_workloads();
        c.spec.workloads = {workloads[rng.index(workloads.size())].name};
        c.spec.threads = 1 + rng.index(3);
        c.spec.top = rng.next_bool(0.3) ? 2 : 0;
        c.spec.metric = rng.next_bool() ? serve::SweepMetric::kIpcPerWatt
                                        : serve::SweepMetric::kPower;
        c.cut_frac = rng.next_unit();
        return c;
      },
      [&ckpt](const ResumeCase& c) -> std::optional<std::string> {
        std::error_code ec;
        std::filesystem::remove(ckpt, ec);
        serve::SweepSpec spec = c.spec;
        spec.checkpoint = ckpt;
        const auto full = serve::run_sweep(**model_, spec);
        const std::string want = report_bytes(full);

        // "Kill" the run: keep only a byte prefix of its checkpoint.
        std::string bytes;
        {
          std::ifstream in(ckpt, std::ios::binary);
          std::ostringstream buf;
          buf << in.rdbuf();
          bytes = buf.str();
        }
        const auto cut =
            static_cast<std::size_t>(c.cut_frac * double(bytes.size()));
        {
          std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
          out << bytes.substr(0, cut);
        }

        spec.resume = true;
        const auto resumed = serve::run_sweep(**model_, spec);
        if (const auto diff = sweep_reports_diff(full, resumed)) {
          return "resumed report differs: " + *diff;
        }
        if (report_bytes(resumed) != want) {
          return "resumed report bytes differ after cutting " +
                 std::to_string(cut) + "/" + std::to_string(bytes.size());
        }
        return std::nullopt;
      },
      describe_resume);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(result.passed) << result.report;
}

}  // namespace
}  // namespace autopower

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  autopower::testcore::apply_cli_flags(&argc, argv);
  return RUN_ALL_TESTS();
}
