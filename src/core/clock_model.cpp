#include "core/clock_model.hpp"

#include <algorithm>
#include <array>

#include "core/features.hpp"
#include "util/error.hpp"

namespace autopower::core {

void ClockPowerModel::train(arch::ComponentKind c,
                            std::span<const EvalContext> samples,
                            const power::GoldenPowerModel& golden) {
  AP_REQUIRE(!samples.empty(), "clock model needs training samples");
  component_ = c;
  reg_model_ = ml::RidgeRegression(options_.ridge);
  gate_model_ = ml::RidgeRegression(options_.ridge);
  alpha_model_ = ml::GBTRegressor(options_.gbt);

  const auto h_names = feature_names(c, FeatureSpec::h());
  const auto he_names = feature_names(c, FeatureSpec::he());
  const double p_reg = golden.library().clock_pin_energy;

  // F_reg and F_gate: structural labels from the synthesized netlists of
  // the known configurations.
  ml::Dataset reg_data(h_names);
  ml::Dataset gate_data(h_names);
  for (const arch::HardwareConfig* cfg : unique_configs(samples)) {
    const auto& nl = golden.netlist_of(*cfg)[static_cast<std::size_t>(c)];
    const auto h = cfg->features_for(arch::component_hw_params(c));
    reg_data.add_sample(h, nl.register_count);
    gate_data.add_sample(h, nl.gating_rate);
  }
  reg_model_.fit(reg_data);
  gate_model_.fit(gate_data);

  // F_a': labels extracted from golden clock power via Eq. 7 inverted,
  //   alpha' = (P_clk - R (1 - g) p_reg) / (R g),
  // using the *known* R and g of the training configurations (they come
  // from the same netlists the labels were collected from).
  ml::Dataset alpha_data(he_names);
  for (const auto& s : samples) {
    const auto& nl = golden.netlist_of(*s.cfg)[static_cast<std::size_t>(c)];
    const double p_clk =
        golden.evaluate(*s.cfg, s.events).of(c).clock;
    const double rg = nl.register_count * nl.gating_rate;
    const double alpha_eff =
        rg > 1e-9
            ? std::max(0.0, (p_clk - nl.register_count *
                                         (1.0 - nl.gating_rate) * p_reg) /
                                rg)
            : 0.0;
    alpha_data.add_sample(
        feature_vector(c, FeatureSpec::he(), *s.cfg, s.events, s.program),
        alpha_eff);
  }
  if (options_.linear_alpha) {
    alpha_linear_model_ = ml::RidgeRegression(options_.ridge);
    alpha_linear_model_.fit(alpha_data);
  } else {
    alpha_model_.fit(alpha_data);
  }
  bundle_ = ml::ForestBundle(forests());
  trained_ = true;
}

void ClockPowerModel::save(util::ArchiveWriter& out) const {
  out.write("clock.component", static_cast<std::int64_t>(component_));
  out.write("clock.trained", trained_);
  out.write("clock.linear_alpha", options_.linear_alpha);
  reg_model_.save(out);
  gate_model_.save(out);
  if (options_.linear_alpha) {
    alpha_linear_model_.save(out);
  } else {
    alpha_model_.save(out);
  }
}

void ClockPowerModel::load(util::ArchiveReader& in) {
  component_ =
      static_cast<arch::ComponentKind>(in.read_int("clock.component"));
  trained_ = in.read_bool("clock.trained");
  options_.linear_alpha = in.read_bool("clock.linear_alpha");
  reg_model_.load(in);
  gate_model_.load(in);
  if (options_.linear_alpha) {
    alpha_linear_model_.load(in);
  } else {
    alpha_model_.load(in);
  }
  bundle_ = trained_ ? ml::ForestBundle(forests()) : ml::ForestBundle();
}

std::vector<const ml::GBTRegressor*> ClockPowerModel::forests() const {
  if (options_.linear_alpha) return {};
  return {&alpha_model_};
}

ClockPowerModel::Terms ClockPowerModel::terms(
    std::span<const double> h) const {
  if (!trained_) throw util::NotFitted("clock model not trained");
  return {reg_model_.predict(h),
          std::clamp(gate_model_.predict(h), 0.0, 0.99)};
}

double ClockPowerModel::combine(const Terms& t, double alpha) const {
  const double p_reg = techlib::TechLibrary::default_40nm().clock_pin_energy;
  // Eq. 7: P_clk = R (1 - g) p_reg + alpha' R g.
  return std::max(0.0, t.registers * (1.0 - t.gating) * p_reg +
                           alpha * t.registers * t.gating);
}

double ClockPowerModel::linear_alpha_of(std::span<const double> he) const {
  return alpha_linear_model_.predict(he);
}

double ClockPowerModel::predict_register_count(
    const arch::HardwareConfig& cfg) const {
  std::array<double, arch::kNumHwParams> buf;
  return terms(hardware_features(component_, cfg, buf)).registers;
}

double ClockPowerModel::predict_gating_rate(
    const arch::HardwareConfig& cfg) const {
  std::array<double, arch::kNumHwParams> buf;
  return terms(hardware_features(component_, cfg, buf)).gating;
}

double ClockPowerModel::predict(const EvalContext& ctx) const {
  if (!trained_) throw util::NotFitted("clock model not trained");
  const auto row = feature_vector(component_, FeatureSpec::hep(), *ctx.cfg,
                                  ctx.events, ctx.program);
  const std::span<const double> span(row);
  double alpha = 0.0;
  if (options_.linear_alpha) {
    alpha = linear_alpha_of(
        span.first(alpha_linear_model_.coefficients().size()));
  } else {
    ml::ForestTile tile;
    bundle_.rank(row, row.size(), tile);
    bundle_.predict(alpha_model_, tile, {&alpha, 1});
  }
  return combine(
      terms(span.first(arch::component_hw_params(component_).size())),
      alpha);
}

std::vector<double> ClockPowerModel::predict_batch(
    std::span<const EvalContext> ctxs) const {
  std::vector<double> out;
  out.reserve(ctxs.size());
  for (const auto& ctx : ctxs) out.push_back(predict(ctx));
  return out;
}

}  // namespace autopower::core
