#include "core/logic_model.hpp"

#include <algorithm>
#include <map>

#include "core/features.hpp"
#include "util/error.hpp"

namespace autopower::core {

void LogicPowerModel::train(arch::ComponentKind c,
                            std::span<const EvalContext> samples,
                            const power::GoldenPowerModel& golden) {
  AP_REQUIRE(!samples.empty(), "logic model needs training samples");
  component_ = c;
  reg_count_model_ = ml::RidgeRegression(options_.ridge);
  reg_act_model_ = ml::GBTRegressor(options_.gbt);
  comb_stable_model_ = ml::RidgeRegression(options_.ridge);
  comb_var_model_ = ml::GBTRegressor(options_.gbt);

  const auto h_names = feature_names(c, FeatureSpec::h());
  const auto he_names = feature_names(c, FeatureSpec::he());

  // Golden per-sample logic power, gathered once.
  std::vector<double> reg_power(samples.size());
  std::vector<double> comb_power(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto groups =
        golden.evaluate(*samples[i].cfg, samples[i].events).of(c);
    reg_power[i] = groups.logic_register;
    comb_power[i] = groups.logic_comb;
  }

  // --- Register power: F_reg(H) on netlist register counts ---------------
  ml::Dataset reg_count_data(h_names);
  std::map<const arch::HardwareConfig*, double> cfg_comb_avg;
  std::map<const arch::HardwareConfig*, int> cfg_count;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    cfg_comb_avg[samples[i].cfg] += comb_power[i];
    cfg_count[samples[i].cfg] += 1;
  }
  for (auto& [cfg, acc] : cfg_comb_avg) acc /= cfg_count[cfg];

  for (const auto& [cfg, unused] : cfg_comb_avg) {
    (void)unused;
    const auto& nl = golden.netlist_of(*cfg)[static_cast<std::size_t>(c)];
    reg_count_data.add_sample(
        cfg->features_for(arch::component_hw_params(c)),
        nl.register_count);
  }
  reg_count_model_.fit(reg_count_data);

  // --- F_act(H, E): golden register power per register -------------------
  ml::Dataset reg_act_data(he_names);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    const auto& nl = golden.netlist_of(*s.cfg)[static_cast<std::size_t>(c)];
    const double label =
        nl.register_count > 1e-9 ? reg_power[i] / nl.register_count : 0.0;
    reg_act_data.add_sample(
        feature_vector(c, FeatureSpec::he(), *s.cfg, s.events, s.program),
        label);
  }
  reg_act_model_.fit(reg_act_data);

  // --- F_sta(H): average combinational power across training workloads ---
  ml::Dataset stable_data(h_names);
  for (const auto& [cfg, avg] : cfg_comb_avg) {
    stable_data.add_sample(cfg->features_for(arch::component_hw_params(c)),
                           avg);
  }
  comb_stable_model_.fit(stable_data);

  // --- F_var(H, E): ratio of combinational power to the stable power -----
  ml::Dataset var_data(he_names);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    const double sta = cfg_comb_avg[s.cfg];
    const double label = sta > 1e-9 ? comb_power[i] / sta : 1.0;
    var_data.add_sample(
        feature_vector(c, FeatureSpec::he(), *s.cfg, s.events, s.program),
        label);
  }
  comb_var_model_.fit(var_data);
  bundle_ = ml::ForestBundle(forests());
  trained_ = true;
}

void LogicPowerModel::save(util::ArchiveWriter& out) const {
  out.write("logic.component", static_cast<std::int64_t>(component_));
  out.write("logic.trained", trained_);
  reg_count_model_.save(out);
  reg_act_model_.save(out);
  comb_stable_model_.save(out);
  comb_var_model_.save(out);
}

void LogicPowerModel::load(util::ArchiveReader& in) {
  component_ =
      static_cast<arch::ComponentKind>(in.read_int("logic.component"));
  trained_ = in.read_bool("logic.trained");
  reg_count_model_.load(in);
  reg_act_model_.load(in);
  comb_stable_model_.load(in);
  comb_var_model_.load(in);
  bundle_ = trained_ ? ml::ForestBundle(forests()) : ml::ForestBundle();
}

std::vector<const ml::GBTRegressor*> LogicPowerModel::forests() const {
  return {&reg_act_model_, &comb_var_model_};
}

double LogicPowerModel::predict(const EvalContext& ctx) const {
  double reg = 0.0;
  double comb = 0.0;
  predict_batch({&ctx, 1}, {&reg, 1}, {&comb, 1});
  return reg + comb;
}

void LogicPowerModel::predict_batch(std::span<const EvalContext> ctxs,
                                    std::span<double> reg_out,
                                    std::span<double> comb_out) const {
  AP_REQUIRE(reg_out.size() == ctxs.size() && comb_out.size() == ctxs.size(),
             "logic predict_batch output spans must match context count");
  AP_REQUIRE(trained_, "logic model not trained");
  const std::size_t n_hw = arch::component_hw_params(component_).size();
  ml::ForestTile tile;
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    const auto& ctx = ctxs[i];
    const auto row = feature_vector(component_, FeatureSpec::hep(), *ctx.cfg,
                                    ctx.events, ctx.program);
    bundle_.rank(row, row.size(), tile);
    double activity[2];
    bundle_.predict(reg_act_model_, tile, {&activity[0], 1});
    bundle_.predict(comb_var_model_, tile, {&activity[1], 1});
    combine(terms(std::span<const double>(row).first(n_hw)), activity,
            reg_out[i], comb_out[i]);
  }
}

LogicPowerModel::Terms LogicPowerModel::terms(
    std::span<const double> h) const {
  AP_REQUIRE(trained_, "logic model not trained");
  return {reg_count_model_.predict(h), comb_stable_model_.predict(h)};
}

void LogicPowerModel::combine(const Terms& t,
                              std::span<const double> activity, double& reg,
                              double& comb) const {
  reg = std::max(0.0, t.registers * activity[0]);  // Eq. 11
  comb = std::max(0.0, t.stable * activity[1]);    // Eq. 12
}

}  // namespace autopower::core
