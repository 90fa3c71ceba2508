// End-to-end tests for the AutoPowerModel orchestrator: few-shot accuracy,
// determinism, per-group structure, and time-based trace prediction.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "exp/trace.hpp"
#include "ml/metrics.hpp"
#include "util/error.hpp"

namespace autopower::core {
namespace {

class AutoPowerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim_ = new sim::PerfSimulator();
    golden_ = new power::GoldenPowerModel();
    data_ = new exp::ExperimentData(
        exp::ExperimentData::build(*sim_, *golden_));
    train_configs_ = new std::vector<std::string>(
        exp::ExperimentData::training_configs(2));
    model_ = new AutoPowerModel();
    model_->train(data_->contexts_of(*train_configs_), *golden_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete train_configs_;
    delete data_;
    delete golden_;
    delete sim_;
  }

  static sim::PerfSimulator* sim_;
  static power::GoldenPowerModel* golden_;
  static exp::ExperimentData* data_;
  static std::vector<std::string>* train_configs_;
  static AutoPowerModel* model_;
};

sim::PerfSimulator* AutoPowerTest::sim_ = nullptr;
power::GoldenPowerModel* AutoPowerTest::golden_ = nullptr;
exp::ExperimentData* AutoPowerTest::data_ = nullptr;
std::vector<std::string>* AutoPowerTest::train_configs_ = nullptr;
AutoPowerModel* AutoPowerTest::model_ = nullptr;

TEST_F(AutoPowerTest, FewShotAccuracyMatchesPaperShape) {
  // Paper: MAPE 4.36%, R^2 0.96 with two known configurations.
  std::vector<double> actual;
  std::vector<double> pred;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    actual.push_back(s->golden.total());
    pred.push_back(model_->predict_total(s->ctx));
  }
  EXPECT_LT(ml::mape(actual, pred), 7.0);
  EXPECT_GT(ml::r2_score(actual, pred), 0.90);
  EXPECT_GT(ml::pearson_r(actual, pred), 0.95);
}

TEST_F(AutoPowerTest, PredictionIsDeterministic) {
  const auto& ctx = data_->samples().back().ctx;
  EXPECT_DOUBLE_EQ(model_->predict_total(ctx), model_->predict_total(ctx));

  AutoPowerModel retrained;
  retrained.train(data_->contexts_of(*train_configs_), *golden_);
  EXPECT_DOUBLE_EQ(model_->predict_total(ctx),
                   retrained.predict_total(ctx));
}

TEST_F(AutoPowerTest, PerComponentResultIsComplete) {
  const auto& ctx = data_->samples().front().ctx;
  const auto result = model_->predict(ctx);
  ASSERT_EQ(result.components.size(), arch::kNumComponents);
  double sum = 0.0;
  for (const auto& cp : result.components) {
    EXPECT_GE(cp.groups.clock, 0.0);
    EXPECT_GE(cp.groups.sram, 0.0);
    EXPECT_GE(cp.groups.logic_register, 0.0);
    EXPECT_GE(cp.groups.logic_comb, 0.0);
    sum += cp.groups.total();
  }
  EXPECT_NEAR(sum, result.total(), 1e-9);
  EXPECT_NEAR(result.total(), model_->predict_total(ctx), 1e-9);
}

TEST_F(AutoPowerTest, GroupBreakdownIsPlausible) {
  // The predicted group shares should reproduce Observation 1.
  power::PowerGroups acc;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    acc += model_->predict(s->ctx).totals();
  }
  const double total = acc.total();
  EXPECT_GT((acc.clock + acc.sram) / total, 0.55);
  EXPECT_GT(acc.clock / total, 0.2);
  EXPECT_GT(acc.sram / total, 0.2);
}

TEST_F(AutoPowerTest, PerGroupAccuracy) {
  std::vector<double> clk_a, clk_p, sram_a, sram_p, logic_a, logic_p;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    const auto pred = model_->predict(s->ctx);
    clk_a.push_back(s->golden.totals().clock);
    clk_p.push_back(pred.totals().clock);
    sram_a.push_back(s->golden.totals().sram);
    sram_p.push_back(pred.totals().sram);
    logic_a.push_back(s->golden.totals().logic());
    logic_p.push_back(pred.totals().logic());
  }
  // Paper Sec. III-B3/B4: clock MAPE 11.37%, SRAM MAPE 7.60% at k=2.
  EXPECT_LT(ml::mape(clk_a, clk_p), 12.0);
  EXPECT_LT(ml::mape(sram_a, sram_p), 12.0);
  EXPECT_LT(ml::mape(logic_a, logic_p), 20.0);
  EXPECT_GT(ml::pearson_r(clk_a, clk_p), 0.9);
  EXPECT_GT(ml::pearson_r(sram_a, sram_p), 0.9);
}

TEST_F(AutoPowerTest, MoreTrainingConfigsHelp) {
  AutoPowerModel k4;
  const auto cfgs4 = exp::ExperimentData::training_configs(4);
  k4.train(data_->contexts_of(cfgs4), *golden_);

  auto mape_of = [&](const AutoPowerModel& m,
                     std::span<const std::string> train) {
    std::vector<double> actual;
    std::vector<double> pred;
    for (const auto* s : data_->samples_excluding(train)) {
      actual.push_back(s->golden.total());
      pred.push_back(m.predict_total(s->ctx));
    }
    return ml::mape(actual, pred);
  };
  EXPECT_LT(mape_of(k4, cfgs4), mape_of(*model_, *train_configs_) + 0.5);
}

TEST_F(AutoPowerTest, TracePredictionFollowsGolden) {
  const auto& cfg = arch::boom_config("C3");
  const auto trace = exp::build_trace(
      *sim_, *golden_, cfg, workload::workload_by_name("gemm"));
  const auto predicted = model_->predict_trace(trace.windows);
  ASSERT_EQ(predicted.size(), trace.golden_total.size());

  const auto err = exp::trace_errors(trace.golden_total, predicted);
  // Paper Table IV: single-digit to low-double-digit percent errors.
  EXPECT_LT(err.average_error, 20.0);
  EXPECT_LT(err.max_power_error, 25.0);
  EXPECT_LT(err.min_power_error, 25.0);
  // The predicted trace must track the golden trace's shape.
  EXPECT_GT(ml::pearson_r(trace.golden_total, predicted), 0.6);
}

TEST_F(AutoPowerTest, ParallelTrainArchiveByteIdentical) {
  // The fits run on a worker pool but land in fixed per-component slots:
  // scheduling must not leak into the trained model.  Byte-compare the
  // archives against the fixture's serially-trained model.
  std::ostringstream serial;
  model_->save(serial);

  for (const std::size_t threads : {2u, 4u}) {
    AutoPowerModel parallel;
    parallel.train(data_->contexts_of(*train_configs_), *golden_, threads);
    std::ostringstream out;
    parallel.save(out);
    EXPECT_EQ(out.str(), serial.str()) << "threads=" << threads;
  }
}

TEST_F(AutoPowerTest, LoadRejectsGroupModelOfAnotherComponent) {
  // Batched prediction folds rows that match on a component's H+E+P
  // features, which is exact only if every group model in slot i reads
  // component i's parameters.  A hand-edited archive that hands slot 1's
  // clock, SRAM or logic model the id of component 0 must not load.
  std::ostringstream saved;
  model_->save(saved);
  const std::string archive = saved.str();
  {
    std::istringstream in(archive);
    AutoPowerModel restored;
    restored.load(in);
    EXPECT_EQ(restored.fingerprint(), model_->fingerprint());
  }
  const std::string slot1 = std::to_string(
      static_cast<std::size_t>(arch::all_components()[1]));
  for (const std::string group : {"clock", "sram", "logic"}) {
    std::string tag = group;
    tag += ".component ";
    std::string line = tag;
    line += slot1;
    line += '\n';
    const std::size_t at = archive.find(line);
    ASSERT_NE(at, std::string::npos) << group;
    std::string edited = archive;
    edited.replace(at + tag.size(), slot1.size(),
                   std::to_string(static_cast<std::size_t>(
                       arch::all_components()[0])));
    std::istringstream in(edited);
    AutoPowerModel restored;
    EXPECT_THROW(restored.load(in), util::InvalidArgument) << group;
  }
}

TEST_F(AutoPowerTest, BatchPredictionMatchesPerSample) {
  std::vector<EvalContext> ctxs;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    ctxs.push_back(s->ctx);
    if (ctxs.size() == 10) break;
  }
  const auto batch = model_->predict_batch(ctxs);
  ASSERT_EQ(batch.size(), ctxs.size());
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    const auto single = model_->predict(ctxs[i]);
    ASSERT_EQ(batch[i].components.size(), single.components.size());
    for (std::size_t c = 0; c < single.components.size(); ++c) {
      EXPECT_EQ(batch[i].components[c].component,
                single.components[c].component);
      EXPECT_EQ(batch[i].components[c].groups.clock,
                single.components[c].groups.clock);
      EXPECT_EQ(batch[i].components[c].groups.sram,
                single.components[c].groups.sram);
      EXPECT_EQ(batch[i].components[c].groups.logic_register,
                single.components[c].groups.logic_register);
      EXPECT_EQ(batch[i].components[c].groups.logic_comb,
                single.components[c].groups.logic_comb);
    }
    EXPECT_EQ(batch[i].total(), model_->predict_total(ctxs[i]));
  }
  // predict_trace is the batched path's main consumer.
  const auto trace = model_->predict_trace(ctxs);
  ASSERT_EQ(trace.size(), ctxs.size());
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    EXPECT_EQ(trace[i], batch[i].total());
  }
}

TEST_F(AutoPowerTest, AccessorsAndErrors) {
  EXPECT_TRUE(model_->trained());
  EXPECT_TRUE(model_->clock_model(arch::ComponentKind::kRob).trained());
  EXPECT_TRUE(model_->sram_model(arch::ComponentKind::kLsu).trained());
  EXPECT_TRUE(model_->logic_model(arch::ComponentKind::kIfu).trained());

  AutoPowerModel fresh;
  EXPECT_FALSE(fresh.trained());
  EXPECT_THROW((void)fresh.predict(data_->samples().front().ctx),
               util::InvalidArgument);
  std::vector<EvalContext> empty;
  EXPECT_THROW(fresh.train(empty, *golden_), util::InvalidArgument);
}

}  // namespace
}  // namespace autopower::core
