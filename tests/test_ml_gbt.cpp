// Unit and property tests for the regression tree and GBT ensemble.

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "ml/gbt.hpp"
#include "ml/metrics.hpp"
#include "ml/tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace autopower::ml {
namespace {

Dataset step_dataset() {
  // y = 1 for x < 0.5, y = 5 for x >= 0.5 — one split suffices.
  Dataset data({"x"});
  for (int i = 0; i < 10; ++i) {
    const double x = i / 10.0;
    data.add_sample(std::array{x}, x < 0.5 ? 1.0 : 5.0);
  }
  return data;
}

Dataset nonlinear_dataset(std::size_t n, std::uint64_t seed = 7) {
  Dataset data({"a", "b"});
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.next_range(0.0, 1.0);
    const double b = rng.next_range(0.0, 1.0);
    // Interaction + threshold: linear models cannot represent this.
    const double y = (a > 0.5 ? 3.0 : 1.0) * b + (a * b > 0.4 ? 2.0 : 0.0);
    data.add_sample(std::array{a, b}, y);
  }
  return data;
}

TEST(RegressionTree, FindsObviousSplit) {
  const auto data = step_dataset();
  std::vector<double> grad(data.size());
  std::vector<double> hess(data.size(), 1.0);
  // Gradient of squared loss from prediction 0: grad = -y.
  for (std::size_t i = 0; i < data.size(); ++i) grad[i] = -data.target(i);

  RegressionTree tree;
  tree.fit(data, grad, hess, TreeOptions{.max_depth = 1, .lambda = 0.0});
  EXPECT_GT(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict(std::array{0.1}), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::array{0.9}), 5.0, 1e-9);
}

TEST(RegressionTree, LeafOnlyWhenNoGain) {
  Dataset data({"x"});
  for (int i = 0; i < 6; ++i) {
    data.add_sample(std::array{static_cast<double>(i)}, 2.0);
  }
  std::vector<double> grad(data.size(), -2.0);
  std::vector<double> hess(data.size(), 1.0);
  RegressionTree tree;
  tree.fit(data, grad, hess, TreeOptions{.max_depth = 4, .lambda = 0.0});
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_NEAR(tree.predict(std::array{3.0}), 2.0, 1e-12);
}

TEST(RegressionTree, RespectsMaxDepth) {
  const auto data = nonlinear_dataset(200);
  std::vector<double> grad(data.size());
  std::vector<double> hess(data.size(), 1.0);
  for (std::size_t i = 0; i < data.size(); ++i) grad[i] = -data.target(i);
  RegressionTree tree;
  tree.fit(data, grad, hess, TreeOptions{.max_depth = 2, .lambda = 1.0});
  EXPECT_LE(tree.depth(), 2);
  EXPECT_LE(tree.node_count(), 7u);  // at most 2^(d+1)-1 nodes
}

TEST(RegressionTree, MinChildWeightBlocksTinyLeaves) {
  const auto data = step_dataset();
  std::vector<double> grad(data.size());
  std::vector<double> hess(data.size(), 1.0);
  for (std::size_t i = 0; i < data.size(); ++i) grad[i] = -data.target(i);
  RegressionTree tree;
  tree.fit(data, grad, hess,
           TreeOptions{.max_depth = 3, .lambda = 0.0,
                       .min_child_weight = 100.0});
  EXPECT_EQ(tree.node_count(), 1u);  // no split satisfies the constraint
}

TEST(RegressionTree, GammaPenaltyPrunesWeakSplits) {
  const auto data = nonlinear_dataset(100);
  std::vector<double> grad(data.size());
  std::vector<double> hess(data.size(), 1.0);
  for (std::size_t i = 0; i < data.size(); ++i) grad[i] = -data.target(i);
  RegressionTree free_tree;
  free_tree.fit(data, grad, hess, TreeOptions{.max_depth = 4, .gamma = 0.0});
  RegressionTree taxed_tree;
  taxed_tree.fit(data, grad, hess,
                 TreeOptions{.max_depth = 4, .gamma = 1000.0});
  EXPECT_LT(taxed_tree.node_count(), free_tree.node_count());
}

TEST(Gbt, FitsStepFunction) {
  GBTRegressor model;
  model.fit(step_dataset());
  EXPECT_NEAR(model.predict(std::array{0.2}), 1.0, 0.05);
  EXPECT_NEAR(model.predict(std::array{0.8}), 5.0, 0.05);
}

TEST(Gbt, FitsNonlinearInteraction) {
  const auto train = nonlinear_dataset(400, 21);
  const auto test = nonlinear_dataset(100, 22);
  GBTRegressor model(GbtOptions{.num_rounds = 200, .learning_rate = 0.15,
                                .tree = {.max_depth = 4}});
  model.fit(train);
  const auto pred = model.predict_all(test);
  EXPECT_GT(r2_score(test.targets(), pred), 0.95);
}

TEST(Gbt, BaseScoreIsMean) {
  Dataset data({"x"});
  data.add_sample(std::array{0.0}, 2.0);
  data.add_sample(std::array{1.0}, 4.0);
  GBTRegressor model;
  model.fit(data);
  EXPECT_DOUBLE_EQ(model.base_score(), 3.0);
}

TEST(Gbt, ConstantTargetNeedsNoTrees) {
  Dataset data({"x"});
  for (int i = 0; i < 8; ++i) {
    data.add_sample(std::array{static_cast<double>(i)}, 3.14);
  }
  GBTRegressor model;
  model.fit(data);
  EXPECT_EQ(model.num_trees(), 0u);
  EXPECT_DOUBLE_EQ(model.predict(std::array{42.0}), 3.14);
}

TEST(Gbt, DeterministicAcrossRuns) {
  const auto data = nonlinear_dataset(200, 33);
  GBTRegressor a;
  GBTRegressor b;
  a.fit(data);
  b.fit(data);
  for (int i = 0; i < 20; ++i) {
    const std::array x{i / 20.0, 1.0 - i / 20.0};
    EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
  }
}

TEST(Gbt, CannotExtrapolateBeyondTrainingRange) {
  // The structural reason the paper uses ridge, not XGBoost, for register
  // counts: trees predict constants outside the training hull.
  Dataset data({"x"});
  for (int i = 0; i <= 10; ++i) {
    data.add_sample(std::array{static_cast<double>(i)}, 10.0 * i);
  }
  GBTRegressor model;
  model.fit(data);
  const double at_edge = model.predict(std::array{10.0});
  const double beyond = model.predict(std::array{100.0});
  EXPECT_NEAR(beyond, at_edge, 1.0);  // flat outside the range
}

TEST(Gbt, NonnegativeClamp) {
  Dataset data({"x"});
  data.add_sample(std::array{0.0}, -5.0);
  data.add_sample(std::array{1.0}, -3.0);
  GBTRegressor clamped(
      GbtOptions{.tree = {}, .nonnegative_prediction = true});
  clamped.fit(data);
  EXPECT_GE(clamped.predict(std::array{0.5}), 0.0);
}

TEST(Gbt, ErrorsOnMisuse) {
  GBTRegressor model;
  EXPECT_FALSE(model.fitted());
  EXPECT_THROW((void)model.predict(std::array{1.0}), util::NotFitted);
  Dataset empty({"x"});
  EXPECT_THROW(model.fit(empty), util::InvalidArgument);
}

// Property sweep: training error decreases (weakly) with more rounds.
class GbtRounds : public ::testing::TestWithParam<int> {};

TEST_P(GbtRounds, TrainingErrorShrinksWithRounds) {
  const auto data = nonlinear_dataset(150, 55);
  GBTRegressor few(GbtOptions{.num_rounds = GetParam(), .tree = {}});
  GBTRegressor many(
      GbtOptions{.num_rounds = GetParam() * 4, .tree = {}});
  few.fit(data);
  many.fit(data);
  const double rmse_few = rmse(data.targets(), few.predict_all(data));
  const double rmse_many = rmse(data.targets(), many.predict_all(data));
  EXPECT_LE(rmse_many, rmse_few + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RoundCounts, GbtRounds,
                         ::testing::Values(5, 15, 40));

// Property sweep: deeper trees fit the training data at least as well.
class GbtDepth : public ::testing::TestWithParam<int> {};

TEST_P(GbtDepth, DeeperFitsTrainingBetter) {
  const auto data = nonlinear_dataset(150, 77);
  GbtOptions shallow_opt;
  shallow_opt.tree.max_depth = 1;
  GbtOptions deep_opt;
  deep_opt.tree.max_depth = GetParam();
  GBTRegressor shallow(shallow_opt);
  GBTRegressor deep(deep_opt);
  shallow.fit(data);
  deep.fit(data);
  EXPECT_LE(rmse(data.targets(), deep.predict_all(data)),
            rmse(data.targets(), shallow.predict_all(data)) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Depths, GbtDepth, ::testing::Values(2, 3, 5));

}  // namespace
}  // namespace autopower::ml
