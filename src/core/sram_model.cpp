#include "core/sram_model.hpp"

#include <algorithm>

#include "core/features.hpp"
#include "techlib/sram_macro.hpp"
#include "util/error.hpp"

namespace autopower::core {

namespace {

// The structural terms must be a function of the component's H
// (AutoPowerModel computes them once per distinct H), so a scaling law may
// read only the component's own hardware parameters.
void check_law_params(arch::ComponentKind c, const std::string& position,
                      const ScalingPatternModel& hardware) {
  const auto own = arch::component_hw_params(c);
  for (const ProportionalLaw* law :
       {&hardware.capacity_law(), &hardware.throughput_law(),
        &hardware.width_law()}) {
    for (arch::HwParam p : law->params) {
      if (std::find(own.begin(), own.end(), p) == own.end()) {
        throw util::InvalidArgument(
            "corrupt SRAM-model archive: scaling law of " +
            std::string(arch::component_name(c)) + "/" + position +
            " reads " + std::string(arch::hw_param_name(p)) +
            ", which is not one of the component's hardware parameters");
      }
    }
  }
}

}  // namespace

void SramPowerModel::train(arch::ComponentKind c,
                           std::span<const EvalContext> samples,
                           const power::GoldenPowerModel& golden) {
  AP_REQUIRE(!samples.empty(), "SRAM model needs training samples");
  component_ = c;
  positions_.clear();

  const auto configs = unique_configs(samples);
  const auto& first_netlist = golden.netlist_of(*configs.front());
  const auto& first_positions =
      first_netlist[static_cast<std::size_t>(c)].sram_positions;
  if (first_positions.empty()) {
    bundle_ = ml::ForestBundle();
    trained_ = true;  // flop-based component: zero SRAM power
    return;
  }

  const FeatureSpec spec = options_.program_features ? FeatureSpec::hep()
                                                     : FeatureSpec::he();
  const auto names = feature_names(c, spec);

  for (std::size_t pi = 0; pi < first_positions.size(); ++pi) {
    PositionModel pm;
    pm.name = first_positions[pi].name;
    pm.read_model = ml::GBTRegressor(options_.gbt);
    pm.write_model = ml::GBTRegressor(options_.gbt);

    // --- Hardware model: block observations across known configs --------
    std::vector<BlockObservation> obs;
    for (const arch::HardwareConfig* cfg : configs) {
      const auto& pos = golden.netlist_of(
          *cfg)[static_cast<std::size_t>(c)].sram_positions[pi];
      AP_ASSERT_MSG(pos.name == pm.name,
                    "SRAM position order differs across configurations");
      obs.push_back({cfg, pos.block_width, pos.block_depth,
                     pos.block_count});
    }
    pm.hardware.fit(arch::component_hw_params(c), obs);

    // --- Activity models: labels from RTL-simulation traces -------------
    ml::Dataset read_data(names);
    ml::Dataset write_data(names);
    for (const auto& s : samples) {
      const auto act = golden.activity().sram_activity(*s.cfg, c, pm.name,
                                                       s.events);
      const auto f = feature_vector(c, spec, *s.cfg, s.events, s.program);
      read_data.add_sample(f, act.read_freq);
      write_data.add_sample(f, act.write_freq);
    }
    pm.read_model.fit(read_data);
    pm.write_model.fit(write_data);

    // --- Pin-toggle constant C (Eq. 10): residual of the golden position
    // power after the read/write term, averaged over training samples.
    double c_sum = 0.0;
    for (const auto& s : samples) {
      const auto& pos = golden.netlist_of(
          *s.cfg)[static_cast<std::size_t>(c)].sram_positions[pi];
      const auto act = golden.activity().sram_activity(*s.cfg, c, pm.name,
                                                       s.events);
      const auto mapping = techlib::map_block_to_macros(
          golden.macro_library(), pos.block_width, pos.block_depth);
      const double rw = golden.library().power_mw(
          act.read_freq * mapping.per_row * mapping.macro.read_energy +
          act.write_freq * mapping.per_row * mapping.macro.write_energy);
      const double golden_power =
          golden.sram_position_power(*s.cfg, c, pos, s.events);
      c_sum += golden_power / pos.block_count - rw;
    }
    pm.pin_constant =
        std::max(0.0, c_sum / static_cast<double>(samples.size()));

    positions_.push_back(std::move(pm));
  }
  bundle_ = ml::ForestBundle(forests());
  trained_ = true;
}

void SramPowerModel::save(util::ArchiveWriter& out) const {
  out.write("sram.component", static_cast<std::int64_t>(component_));
  out.write("sram.trained", trained_);
  out.write("sram.program_features", options_.program_features);
  out.write("sram.num_positions",
            static_cast<std::int64_t>(positions_.size()));
  for (const auto& pm : positions_) {
    out.write("sram.position", pm.name);
    out.write("sram.pin_constant", pm.pin_constant);
    pm.hardware.save(out);
    pm.read_model.save(out);
    pm.write_model.save(out);
  }
}

void SramPowerModel::load(util::ArchiveReader& in) {
  const auto component = in.read_int("sram.component");
  AP_REQUIRE(component >= 0 && component < static_cast<std::int64_t>(
                                               arch::kNumComponents),
             "corrupt SRAM-model archive: bad component id");
  component_ = static_cast<arch::ComponentKind>(component);
  trained_ = in.read_bool("sram.trained");
  options_.program_features = in.read_bool("sram.program_features");
  const auto n = in.read_int("sram.num_positions");
  AP_REQUIRE(n >= 0 && n < 64, "corrupt SRAM-model archive");
  positions_.assign(static_cast<std::size_t>(n), PositionModel{});
  for (auto& pm : positions_) {
    pm.name = in.read_token("sram.position");
    pm.pin_constant = in.read_double("sram.pin_constant");
    pm.hardware.load(in);
    check_law_params(component_, pm.name, pm.hardware);
    pm.read_model.load(in);
    pm.write_model.load(in);
  }
  bundle_ = trained_ ? ml::ForestBundle(forests()) : ml::ForestBundle();
}

std::vector<const ml::GBTRegressor*> SramPowerModel::forests() const {
  std::vector<const ml::GBTRegressor*> out;
  for (const auto& pm : positions_) {
    out.push_back(&pm.read_model);
    out.push_back(&pm.write_model);
  }
  return out;
}

double SramPowerModel::predict(const EvalContext& ctx) const {
  AP_REQUIRE(trained_, "SRAM model not trained");
  std::vector<double> activity(2 * positions_.size());
  if (!positions_.empty()) {
    const auto row = feature_vector(component_, FeatureSpec::hep(),
                                    *ctx.cfg, ctx.events, ctx.program);
    ml::ForestTile tile;
    bundle_.rank(row, row.size(), tile);
    for (std::size_t p = 0; p < positions_.size(); ++p) {
      bundle_.predict(positions_[p].read_model, tile, {&activity[2 * p], 1});
      bundle_.predict(positions_[p].write_model, tile,
                      {&activity[2 * p + 1], 1});
    }
  }
  std::vector<PositionTerms> t(positions_.size());
  terms(*ctx.cfg, t);
  return combine(t, activity);
}

std::vector<double> SramPowerModel::predict_batch(
    std::span<const EvalContext> ctxs) const {
  std::vector<double> out;
  out.reserve(ctxs.size());
  for (const auto& ctx : ctxs) out.push_back(predict(ctx));
  return out;
}

void SramPowerModel::terms(const arch::HardwareConfig& cfg,
                           std::span<PositionTerms> out) const {
  AP_REQUIRE(trained_, "SRAM model not trained");
  AP_REQUIRE(out.size() == positions_.size(),
             "SRAM terms span must hold one entry per position");
  const auto& macros = techlib::SramMacroLibrary::default_40nm();
  for (std::size_t p = 0; p < positions_.size(); ++p) {
    const BlockPrediction block = positions_[p].hardware.predict(cfg);
    const auto mapping =
        techlib::map_block_to_macros(macros, block.width, block.depth);
    out[p] = {block.count, mapping.per_row, mapping.macro.read_energy,
              mapping.macro.write_energy};
  }
}

double SramPowerModel::combine(std::span<const PositionTerms> t,
                               std::span<const double> activity) const {
  const auto& lib = techlib::TechLibrary::default_40nm();
  // Positions in declaration order.
  double out = 0.0;
  for (std::size_t p = 0; p < positions_.size(); ++p) {
    // Eq. 9 + Eq. 10: one row of macros per access, plus the constant C.
    const double rw =
        lib.power_mw(activity[2 * p] * t[p].per_row * t[p].read_energy +
                     activity[2 * p + 1] * t[p].per_row * t[p].write_energy);
    out += t[p].count * (rw + positions_[p].pin_constant);
  }
  return std::max(0.0, out);
}

BlockPrediction SramPowerModel::predict_block(
    const arch::HardwareConfig& cfg, std::string_view position) const {
  AP_REQUIRE(trained_, "SRAM model not trained");
  for (const auto& pm : positions_) {
    if (pm.name == position) return pm.hardware.predict(cfg);
  }
  throw util::InvalidArgument("unknown SRAM position: " +
                              std::string(position));
}

std::vector<std::string> SramPowerModel::position_names() const {
  std::vector<std::string> out;
  out.reserve(positions_.size());
  for (const auto& pm : positions_) out.push_back(pm.name);
  return out;
}

}  // namespace autopower::core
