// Tests for the branch predictor model.

#include <gtest/gtest.h>

#include "sim/branch.hpp"
#include "util/error.hpp"

namespace autopower::sim {
namespace {

TEST(BranchPredictor, TableSizeMustBePow2) {
  EXPECT_NO_THROW(BranchPredictorModel(1024));
  EXPECT_THROW(BranchPredictorModel(1000), util::InvalidArgument);
  EXPECT_THROW(BranchPredictorModel(0), util::InvalidArgument);
}

TEST(BranchPredictor, LearnsAlwaysTakenBranch) {
  BranchPredictorModel bp(256);
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    correct += bp.predict_and_update(0x400, true);
  }
  EXPECT_GT(correct, 95);  // warms up within a few iterations
}

TEST(BranchPredictor, LearnsAlternatingWithHistory) {
  // T/NT alternation is captured by global history indexing.
  BranchPredictorModel bp(1024, 8);
  int correct_late = 0;
  for (int i = 0; i < 400; ++i) {
    const bool taken = (i % 2) == 0;
    const bool ok = bp.predict_and_update(0x400, taken);
    if (i >= 200) correct_late += ok;
  }
  EXPECT_GT(correct_late, 180);
}

TEST(BranchPredictor, ResetForgets) {
  BranchPredictorModel bp(256);
  for (int i = 0; i < 50; ++i) bp.predict_and_update(0x400, false);
  bp.reset();
  // After reset, counters are weakly-taken again: predicts taken.
  int correct = bp.predict_and_update(0x400, false) ? 1 : 0;
  EXPECT_EQ(correct, 0);
}

TEST(BranchStream, MispredictRateDeterministic) {
  BranchPredictorModel a(512);
  BranchPredictorModel b(512);
  BranchStreamProfile s;
  s.entropy = 0.4;
  s.seed = 5;
  EXPECT_DOUBLE_EQ(measure_mispredict_rate(a, s, 5000),
                   measure_mispredict_rate(b, s, 5000));
}

TEST(BranchStream, MispredictRateMatchesRecordedStream) {
  // Pins the exact util::Rng draw stream: 1199 mispredicts in 5000.
  BranchPredictorModel bp(512);
  BranchStreamProfile s;
  s.entropy = 0.4;
  s.seed = 5;
  EXPECT_EQ(measure_mispredict_rate(bp, s, 5000), 0x1.eb1c432ca57a8p-3);
}

TEST(BranchStream, RejectsEmptyStaticBranchSet) {
  BranchPredictorModel bp(64);
  BranchStreamProfile s;
  s.static_branches = 0;
  EXPECT_THROW((void)measure_mispredict_rate(bp, s, 10),
               util::InvalidArgument);
}

TEST(BranchStream, EntropyRaisesMispredicts) {
  BranchStreamProfile easy;
  easy.entropy = 0.05;
  easy.seed = 11;
  BranchStreamProfile hard;
  hard.entropy = 0.9;
  hard.seed = 11;
  BranchPredictorModel bp1(1024);
  BranchPredictorModel bp2(1024);
  const double miss_easy = measure_mispredict_rate(bp1, easy, 8000);
  const double miss_hard = measure_mispredict_rate(bp2, hard, 8000);
  EXPECT_LT(miss_easy, 0.12);
  EXPECT_GT(miss_hard, 2.0 * miss_easy);
}

TEST(BranchStream, BiggerTablePredictsNoWorse) {
  BranchStreamProfile s;
  s.entropy = 0.3;
  s.static_branches = 400;  // enough to stress a small table
  s.seed = 23;
  BranchPredictorModel small(128);
  BranchPredictorModel large(8192);
  const double miss_small = measure_mispredict_rate(small, s, 20000);
  const double miss_large = measure_mispredict_rate(large, s, 20000);
  EXPECT_LE(miss_large, miss_small + 0.01);
}

TEST(BranchStream, RejectsNonPositiveCount) {
  BranchPredictorModel bp(256);
  BranchStreamProfile s;
  EXPECT_THROW((void)measure_mispredict_rate(bp, s, 0),
               util::InvalidArgument);
}

}  // namespace
}  // namespace autopower::sim
