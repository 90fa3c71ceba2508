// Tests for the per-group power models: clock (Eq. 7), SRAM (hierarchy +
// Eq. 9/10) and logic (Eq. 11/12).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/clock_model.hpp"
#include "core/logic_model.hpp"
#include "core/sram_model.hpp"
#include "exp/dataset.hpp"
#include "ml/metrics.hpp"
#include "util/archive.hpp"
#include "util/error.hpp"

namespace autopower::core {
namespace {

using arch::ComponentKind;

/// Shared fixture: the experiment grid plus a k=2 training split.
class GroupModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim_ = new sim::PerfSimulator();
    golden_ = new power::GoldenPowerModel();
    data_ = new exp::ExperimentData(
        exp::ExperimentData::build(*sim_, *golden_));
    train_configs_ =
        new std::vector<std::string>(exp::ExperimentData::training_configs(2));
    train_ctx_ = new std::vector<EvalContext>(
        data_->contexts_of(*train_configs_));
  }
  static void TearDownTestSuite() {
    delete train_ctx_;
    delete train_configs_;
    delete data_;
    delete golden_;
    delete sim_;
  }

  static sim::PerfSimulator* sim_;
  static power::GoldenPowerModel* golden_;
  static exp::ExperimentData* data_;
  static std::vector<std::string>* train_configs_;
  static std::vector<EvalContext>* train_ctx_;
};

sim::PerfSimulator* GroupModelTest::sim_ = nullptr;
power::GoldenPowerModel* GroupModelTest::golden_ = nullptr;
exp::ExperimentData* GroupModelTest::data_ = nullptr;
std::vector<std::string>* GroupModelTest::train_configs_ = nullptr;
std::vector<EvalContext>* GroupModelTest::train_ctx_ = nullptr;

TEST_F(GroupModelTest, ClockModelTrainsAndPredicts) {
  ClockPowerModel model;
  EXPECT_FALSE(model.trained());
  model.train(ComponentKind::kRob, *train_ctx_, *golden_);
  EXPECT_TRUE(model.trained());

  std::vector<double> actual;
  std::vector<double> pred;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    actual.push_back(s->golden.of(ComponentKind::kRob).clock);
    pred.push_back(model.predict(s->ctx));
  }
  EXPECT_LT(ml::mape(actual, pred), 15.0);
  // A single component's clock model at k=2 is noisier than the
  // aggregate (the Fig. 7 bench reports the per-component spread).
  EXPECT_GT(ml::pearson_r(actual, pred), 0.75);
}

TEST_F(GroupModelTest, ClockSubModelsAreAccurate) {
  // Sec. III-B3: R and g predictions are accurate (paper ~6.93% MAPE).
  ClockPowerModel model;
  model.train(ComponentKind::kIfu, *train_ctx_, *golden_);
  std::vector<double> r_actual;
  std::vector<double> r_pred;
  std::vector<double> g_actual;
  std::vector<double> g_pred;
  for (const auto& cfg : arch::boom_design_space()) {
    const auto& nl = golden_->netlist_of(
        cfg)[static_cast<std::size_t>(ComponentKind::kIfu)];
    r_actual.push_back(nl.register_count);
    r_pred.push_back(model.predict_register_count(cfg));
    g_actual.push_back(nl.gating_rate);
    g_pred.push_back(model.predict_gating_rate(cfg));
  }
  EXPECT_LT(ml::mape(r_actual, r_pred), 8.0);
  EXPECT_LT(ml::mape(g_actual, g_pred), 3.0);
}

TEST_F(GroupModelTest, ClockGatingRateStaysInRange) {
  ClockPowerModel model;
  model.train(ComponentKind::kFuPool, *train_ctx_, *golden_);
  for (const auto& cfg : arch::boom_design_space()) {
    const double g = model.predict_gating_rate(cfg);
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 0.99);
  }
}

TEST_F(GroupModelTest, ClockAlphaNonNegative) {
  ClockPowerModel model;
  model.train(ComponentKind::kLsu, *train_ctx_, *golden_);
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    EXPECT_GE(model.predict(s->ctx), 0.0);
  }
}

TEST_F(GroupModelTest, ClockLinearAlphaVariantWorks) {
  ClockModelOptions options;
  options.linear_alpha = true;
  ClockPowerModel model(options);
  model.train(ComponentKind::kRob, *train_ctx_, *golden_);
  std::vector<double> actual;
  std::vector<double> pred;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    actual.push_back(s->golden.of(ComponentKind::kRob).clock);
    pred.push_back(model.predict(s->ctx));
  }
  EXPECT_LT(ml::mape(actual, pred), 20.0);
}

TEST_F(GroupModelTest, ClockErrorsBeforeTraining) {
  ClockPowerModel model;
  EXPECT_THROW((void)model.predict_register_count(arch::boom_config("C1")),
               util::NotFitted);
}

TEST_F(GroupModelTest, SramModelTrainsAndPredicts) {
  SramPowerModel model;
  model.train(ComponentKind::kICacheDataArray, *train_ctx_, *golden_);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.position_names().size(), 1u);

  std::vector<double> actual;
  std::vector<double> pred;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    actual.push_back(s->golden.of(ComponentKind::kICacheDataArray).sram);
    pred.push_back(model.predict(s->ctx));
  }
  EXPECT_LT(ml::mape(actual, pred), 20.0);
  EXPECT_GT(ml::pearson_r(actual, pred), 0.85);
}

TEST_F(GroupModelTest, SramFlopOnlyComponentPredictsZero) {
  SramPowerModel model;
  model.train(ComponentKind::kFuPool, *train_ctx_, *golden_);
  EXPECT_TRUE(model.position_names().empty());
  EXPECT_DOUBLE_EQ(model.predict(train_ctx_->front()), 0.0);
}

TEST_F(GroupModelTest, SramBlockPredictionMatchesFloorplan) {
  SramPowerModel model;
  model.train(ComponentKind::kLsu, *train_ctx_, *golden_);
  for (const auto& cfg : arch::boom_design_space()) {
    const auto& nl =
        golden_->netlist_of(cfg)[static_cast<std::size_t>(
            ComponentKind::kLsu)];
    for (const auto& pos : nl.sram_positions) {
      const auto pred = model.predict_block(cfg, pos.name);
      EXPECT_EQ(pred.width, pos.block_width) << pos.name;
      EXPECT_EQ(pred.depth, pos.block_depth) << pos.name;
      EXPECT_EQ(pred.count, pos.block_count) << pos.name;
    }
  }
  EXPECT_THROW((void)model.predict_block(arch::boom_config("C1"), "nope"),
               util::InvalidArgument);
}

TEST_F(GroupModelTest, SramWithoutProgramFeaturesStillWorks) {
  SramModelOptions options;
  options.program_features = false;
  SramPowerModel model(options);
  model.train(ComponentKind::kDTlb, *train_ctx_, *golden_);
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    EXPECT_GE(model.predict(s->ctx), 0.0);
  }
}

TEST_F(GroupModelTest, SramLoadRejectsScalingLawOnForeignParameter) {
  // AutoPowerModel predicts each distinct H+E+P row once, which is exact
  // only if a scaling law reads nothing outside the component's H.  A
  // hand-edited archive whose first law reads another parameter must not
  // load.
  const ComponentKind comp = ComponentKind::kICacheDataArray;
  SramPowerModel model;
  model.train(comp, *train_ctx_, *golden_);
  std::ostringstream out;
  util::ArchiveWriter writer(out);
  model.save(writer);
  const std::string archive = out.str();

  const auto own = arch::component_hw_params(comp);
  const auto all = arch::all_hw_params();
  const auto foreign = std::find_if(all.begin(), all.end(), [&](auto p) {
    return std::find(own.begin(), own.end(), p) == own.end();
  });
  ASSERT_NE(foreign, all.end());
  const std::size_t begin = archive.find("law.params ");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = archive.find('\n', begin);
  std::string edited = archive;
  edited.replace(begin, end - begin,
                 "law.params 1 " +
                     std::to_string(static_cast<std::size_t>(*foreign)));

  {
    std::istringstream in(archive);
    util::ArchiveReader reader(in);
    SramPowerModel restored;
    restored.load(reader);
    EXPECT_EQ(restored.predict(train_ctx_->front()),
              model.predict(train_ctx_->front()));
  }
  {
    std::istringstream in(edited);
    util::ArchiveReader reader(in);
    SramPowerModel restored;
    try {
      restored.load(reader);
      FAIL() << "archive with a foreign scaling-law parameter loaded";
    } catch (const util::InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(arch::hw_param_name(*foreign)),
                std::string::npos)
          << e.what();
    }
  }
  // The check needs the component's parameter set, so a component id
  // outside Table III is rejected before it.
  const std::string tag = "sram.component ";
  ASSERT_EQ(archive.find(tag), 0u);
  std::string bad_component = archive;
  bad_component.replace(tag.size(), archive.find('\n') - tag.size(), "99");
  std::istringstream in(bad_component);
  util::ArchiveReader reader(in);
  SramPowerModel restored;
  EXPECT_THROW(restored.load(reader), util::InvalidArgument);
}

TEST_F(GroupModelTest, LogicModelTrainsAndPredicts) {
  LogicPowerModel model;
  model.train(ComponentKind::kFuPool, *train_ctx_, *golden_);
  EXPECT_TRUE(model.trained());
  std::vector<double> actual;
  std::vector<double> pred;
  for (const auto* s : data_->samples_excluding(*train_configs_)) {
    actual.push_back(s->golden.of(ComponentKind::kFuPool).logic());
    pred.push_back(model.predict(s->ctx));
  }
  EXPECT_LT(ml::mape(actual, pred), 25.0);
  EXPECT_GT(ml::pearson_r(actual, pred), 0.8);
}

TEST_F(GroupModelTest, LogicSplitsIntoRegisterAndComb) {
  LogicPowerModel model;
  model.train(ComponentKind::kRob, *train_ctx_, *golden_);
  const auto& ctx = data_->samples_excluding(*train_configs_)[0]->ctx;
  double reg = 0.0;
  double comb = 0.0;
  model.predict_batch({&ctx, 1}, {&reg, 1}, {&comb, 1});
  EXPECT_GT(reg, 0.0);
  EXPECT_GT(comb, 0.0);
  EXPECT_NEAR(model.predict(ctx), reg + comb, 1e-12);
}

TEST_F(GroupModelTest, TrainingSamplesAreNearlyInterpolated) {
  // On training configurations the models must be very accurate (they saw
  // the golden labels).
  ClockPowerModel clock;
  clock.train(ComponentKind::kIfu, *train_ctx_, *golden_);
  std::vector<double> actual;
  std::vector<double> pred;
  for (const auto& ctx : *train_ctx_) {
    actual.push_back(
        golden_->evaluate(*ctx.cfg, ctx.events).of(ComponentKind::kIfu)
            .clock);
    pred.push_back(clock.predict(ctx));
  }
  EXPECT_LT(ml::mape(actual, pred), 3.0);
}

TEST_F(GroupModelTest, ModelsRejectEmptyTraining) {
  std::vector<EvalContext> empty;
  ClockPowerModel clock;
  EXPECT_THROW(clock.train(ComponentKind::kRob, empty, *golden_),
               util::InvalidArgument);
  SramPowerModel sram;
  EXPECT_THROW(sram.train(ComponentKind::kRob, empty, *golden_),
               util::InvalidArgument);
  LogicPowerModel logic;
  EXPECT_THROW(logic.train(ComponentKind::kRob, empty, *golden_),
               util::InvalidArgument);
}

}  // namespace
}  // namespace autopower::core
