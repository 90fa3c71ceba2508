// Property tests for the fast training/inference paths.
//
// The presorted exact-greedy tree builder and the padded-forest batched
// GBT inference are pure optimisations: they must reproduce the reference
// implementations bit-for-bit.  These tests pin that contract on datasets
// chosen to stress the tie-breaking paths — duplicate-heavy columns,
// constant columns — across a grid of tree hyper-parameters and every
// SIMD tier, and also pin the archive validation in RegressionTree::load.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ml/gbt.hpp"
#include "ml/tree.hpp"
#include "testcore/tier_guard.hpp"
#include "util/archive.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace autopower::ml {
namespace {

// Duplicate-heavy and degenerate features: "dup" takes four distinct
// values, "konst" is constant (never splittable), "coarse" has many ties.
Dataset awkward_dataset(std::size_t n, std::uint64_t seed) {
  Dataset data({"dup", "cont", "konst", "coarse"});
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double dup = std::floor(rng.next_range(0.0, 4.0));
    const double cont = rng.next_range(-1.0, 1.0);
    const double konst = 2.5;
    const double coarse = std::floor(rng.next_range(0.0, 10.0)) / 10.0;
    const double y = dup + (cont > 0.0 ? 2.0 : 0.0) + 3.0 * coarse +
                     rng.next_range(-0.1, 0.1);
    data.add_sample(std::array{dup, cont, konst, coarse}, y);
  }
  return data;
}

std::string tree_archive(const RegressionTree& tree) {
  std::ostringstream os;
  util::ArchiveWriter w(os);
  tree.save(w);
  return os.str();
}

std::string gbt_archive(const GBTRegressor& model) {
  std::ostringstream os;
  util::ArchiveWriter w(os);
  model.save(w);
  return os.str();
}

TEST(FastPath, PresortedTreeMatchesReferenceByteForByte) {
  const TreeOptions grid[] = {
      {.max_depth = 1, .lambda = 0.0},
      {.max_depth = 3, .lambda = 1.0},
      {.max_depth = 3, .lambda = 1.0, .gamma = 0.5},
      {.max_depth = 4, .lambda = 0.5, .min_child_weight = 3.0},
      {.max_depth = 5, .lambda = 1e-6},
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto data = awkward_dataset(seed % 2 == 0 ? 37 : 200, seed);
    std::vector<double> grad(data.size());
    const std::vector<double> hess(data.size(), 1.0);
    for (std::size_t i = 0; i < data.size(); ++i) grad[i] = -data.target(i);

    for (TreeOptions options : grid) {
      options.reference_split_search = true;
      RegressionTree reference;
      reference.fit(data, grad, hess, options);

      options.reference_split_search = false;
      RegressionTree fast;
      fast.fit(data, grad, hess, options);

      EXPECT_EQ(tree_archive(fast), tree_archive(reference))
          << "seed " << seed << " depth " << options.max_depth;
    }
  }
}

TEST(FastPath, GbtEnsemblesIdenticalUnderBothBuilders) {
  const auto data = awkward_dataset(150, 11);
  GbtOptions fast_opts{.num_rounds = 40, .learning_rate = 0.2, .tree = {}};
  GbtOptions ref_opts = fast_opts;
  ref_opts.tree.reference_split_search = true;

  GBTRegressor fast(fast_opts);
  GBTRegressor reference(ref_opts);
  fast.fit(data);
  reference.fit(data);

  // The builder flag is serialized nowhere; the trees must be the trees.
  EXPECT_EQ(gbt_archive(fast), gbt_archive(reference));
}

// Deepest `tree.depth` in a GBT archive.
int deepest_tree(const std::string& archive) {
  std::istringstream lines(archive);
  std::string tag;
  int deepest = -1;
  while (lines >> tag) {
    if (tag == "tree.depth") {
      int depth = 0;
      lines >> depth;
      deepest = std::max(deepest, depth);
    }
    lines.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return deepest;
}

TEST(FastPath, BatchedPredictAllBitIdenticalToPerSample) {
  // Depths straddle the padded layout's limit: trees deeper than
  // simd::kMaxPaddedDepth take the per-row scalar fallback.
  const auto data = awkward_dataset(173, 23);  // not a multiple of the block
  testcore::TierGuard guard;
  for (const int depth : {1, 4, 5, 6, 8}) {
    GbtOptions options;
    options.num_rounds = 30;
    options.learning_rate = 0.15;
    options.tree.max_depth = depth;
    GBTRegressor model(options);
    model.fit(data);
    const std::string archive = gbt_archive(model);
    ASSERT_EQ(deepest_tree(archive), depth);

    // The padded forest is rebuilt on load; it must match too.
    std::istringstream buf(archive);
    util::ArchiveReader r(buf);
    GBTRegressor restored;
    restored.load(r);

    for (const auto tier : {util::simd::Tier::kScalar,
                            util::simd::Tier::kAvx2}) {
      if (util::simd::kernels_for(tier) == nullptr) continue;
      util::simd::set_active_tier(tier);
      for (const GBTRegressor* m : {&model, &restored}) {
        const auto batched = m->predict_all(data);
        ASSERT_EQ(batched.size(), data.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
          EXPECT_EQ(batched[i], model.predict(data.features(i)))
              << "depth " << depth << " tier "
              << util::simd::tier_name(tier)
              << (m == &model ? " fitted" : " restored") << " sample " << i;
        }
      }
    }
  }
}

TEST(FastPath, WideRowsBatchedPredictBitIdenticalToPerSample) {
  // 40 features with the signal in the last ones: the vector tiers'
  // column scratch outgrows its stack buffer and takes the heap path.
  constexpr std::size_t kFeatures = 40;
  std::vector<std::string> names;
  for (std::size_t f = 0; f < kFeatures; ++f) {
    // Appended rather than "f" + to_string(f), which GCC 12 -O3 flags
    // with a false -Wrestrict.
    names.emplace_back("f").append(std::to_string(f));
  }
  Dataset data(names);
  util::Rng rng(7);
  std::vector<double> row(kFeatures);
  for (std::size_t i = 0; i < 150; ++i) {
    for (double& x : row) x = rng.next_range(-1.0, 1.0);
    data.add_sample(row, 3.0 * row[kFeatures - 1] +
                             (row[kFeatures - 2] > 0.0 ? 1.0 : 0.0));
  }
  GbtOptions options;
  options.num_rounds = 20;
  options.learning_rate = 0.2;
  GBTRegressor model(options);
  model.fit(data);

  const auto batched = model.predict_all(data);
  ASSERT_EQ(batched.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(batched[i], model.predict(data.features(i))) << "sample " << i;
  }
}

TEST(FastPath, PredictRowsValidatesArity) {
  const auto data = awkward_dataset(40, 3);
  GBTRegressor model(GbtOptions{.num_rounds = 5, .tree = {}});
  model.fit(data);

  const std::vector<double> rows(12, 0.5);
  EXPECT_THROW((void)model.predict_rows(rows, 5), util::Error);  // 12 % 5
  EXPECT_THROW((void)model.predict_rows(rows, 2), util::Error);  // arity < 4
  EXPECT_THROW((void)model.predict_rows(rows, 0), util::Error);
  EXPECT_NO_THROW((void)model.predict_rows(rows, 4));

  GBTRegressor unfitted;
  EXPECT_THROW((void)unfitted.predict_rows(rows, 4), util::NotFitted);
}

// --- RegressionTree::load archive validation --------------------------------

void write_raw_tree(util::ArchiveWriter& w,
                    const std::vector<std::int64_t>& structure,
                    const std::vector<double>& values, std::int64_t depth) {
  w.write("tree.depth", depth);
  w.write("tree.structure", structure);
  w.write("tree.values", values);
}

std::string raw_tree_archive(const std::vector<std::int64_t>& structure,
                             const std::vector<double>& values,
                             std::int64_t depth = 1) {
  std::ostringstream os;
  util::ArchiveWriter w(os);
  write_raw_tree(w, structure, values, depth);
  return os.str();
}

// A fitted one-tree GBT archive whose node 0 is its own left child.
std::string self_looping_gbt_archive(std::int64_t tree_depth) {
  std::ostringstream os;
  util::ArchiveWriter w(os);
  w.write("gbt.rounds", std::int64_t{1});
  w.write("gbt.lr", 0.1);
  w.write("gbt.max_depth", std::int64_t{3});
  w.write("gbt.lambda", 1.0);
  w.write("gbt.gamma", 0.0);
  w.write("gbt.min_child_weight", 1.0);
  w.write("gbt.nonneg", false);
  w.write("gbt.fitted", true);
  w.write("gbt.base_score", 0.0);
  w.write("gbt.num_trees", std::int64_t{1});
  write_raw_tree(w, {0, 0, 1, -1, -1, -1}, {0.5, 0.0, 0.0, 1.0},
                 tree_depth);
  return os.str();
}

void expect_load_rejects(const std::string& archive) {
  std::istringstream is(archive);
  util::ArchiveReader r(is);
  RegressionTree tree;
  EXPECT_THROW(tree.load(r), util::InvalidArgument);
}

TEST(FastPath, LoadRejectsNegativeChildIndicesOtherThanLeafMarker) {
  // Node 0 splits with left = -5: passes a naive `< node_count` bound but
  // would index out of bounds in predict().
  expect_load_rejects(raw_tree_archive({0, -5, 2, -1, -1, -1, -1, -1, -1},
                                       {0.5, 0.0, 0.0, 1.0, 0.0, 2.0}));
  // Same for the right child.
  expect_load_rejects(raw_tree_archive({0, 1, -2, -1, -1, -1, -1, -1, -1},
                                       {0.5, 0.0, 0.0, 1.0, 0.0, 2.0}));
  // And for a nonsense feature id below the leaf marker.
  expect_load_rejects(raw_tree_archive({-3, 1, 2, -1, -1, -1, -1, -1, -1},
                                       {0.5, 0.0, 0.0, 1.0, 0.0, 2.0}));
}

TEST(FastPath, LoadRejectsInteriorNodeWithLeafChild) {
  // Node 0 claims to split on feature 0 but its right child is the leaf
  // marker: predict() would walk to index -1.
  expect_load_rejects(raw_tree_archive({0, 1, -1, -1, -1, -1},
                                       {0.5, 0.0, 0.0, 1.0}));
}

TEST(FastPath, LoadRejectsNodesOffTheRootedTree) {
  const std::vector<double> two = {0.5, 0.0, 0.0, 1.0};
  const std::vector<double> three = {0.5, 0.0, 0.0, 1.0, 0.0, 2.0};
  // Both children of node 0 are node 1: reached twice.
  expect_load_rejects(raw_tree_archive({0, 1, 1, -1, -1, -1}, two));
  // Node 1 splits back to the root: a cycle.
  expect_load_rejects(raw_tree_archive({0, 1, 2, 0, 0, 2, -1, -1, -1},
                                       three, 2));
  // Node 3 is never reached from the root.
  expect_load_rejects(raw_tree_archive(
      {0, 1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1},
      {0.5, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0}));
}

TEST(FastPath, LoadRejectsDepthThatDisagreesWithTheNodes) {
  const std::vector<std::int64_t> structure = {0, 1, 2, -1, -1, -1,
                                               -1, -1, -1};
  const std::vector<double> values = {0.5, 0.0, 0.0, 1.0, 0.0, 2.0};
  expect_load_rejects(raw_tree_archive(structure, values, 0));
  expect_load_rejects(raw_tree_archive(structure, values, 2));
  expect_load_rejects(raw_tree_archive(structure, values, -1));
}

TEST(FastPath, LoadRejectsSelfLoopingGbtTreeWithinDeadline) {
  // A self-loop used to load at tree.depth 7 and then never return from
  // predict(); at 1 and -1 it failed with unrelated errors.  The load runs
  // on a worker so a hang ends the run with a message instead of stalling
  // the suite: a thread stuck in a loop cannot be joined.
  for (const std::int64_t depth : {7, 1, -1}) {
    const std::string archive = self_looping_gbt_archive(depth);
    std::promise<std::string> outcome;
    auto result = outcome.get_future();
    std::thread worker([&archive, &outcome] {
      std::string what = "loaded";
      try {
        std::istringstream is(archive);
        util::ArchiveReader r(is);
        GBTRegressor model;
        model.load(r);
      } catch (const util::InvalidArgument&) {
        what = "InvalidArgument";
      } catch (const std::exception& e) {
        what = std::string("other error: ") + e.what();
      }
      outcome.set_value(what);
    });
    if (result.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "GBT load hung at tree.depth %lld\n",
                   static_cast<long long>(depth));
      std::abort();
    }
    worker.join();
    EXPECT_EQ(result.get(), "InvalidArgument") << "tree.depth " << depth;
  }
}

TEST(FastPath, LoadAcceptsWellFormedArchive) {
  const auto archive = raw_tree_archive({0, 1, 2, -1, -1, -1, -1, -1, -1},
                                        {0.5, 0.0, 0.0, 1.0, 0.0, 2.0});
  std::istringstream is(archive);
  util::ArchiveReader r(is);
  RegressionTree tree;
  tree.load(r);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.predict(std::array{0.0}), 1.0);
  EXPECT_EQ(tree.predict(std::array{0.9}), 2.0);
}

}  // namespace
}  // namespace autopower::ml
