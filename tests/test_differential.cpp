// Randomized differential oracles over the fast paths (src/testcore).
//
// Every optimised path in this repository claims BIT-identity with a
// reference path.  These properties generate hundreds of random inputs
// per oracle and compare the two paths exactly:
//
//   (a) reference vs presorted tree builder  -> byte-equal archives,
//   (b) per-sample vs SoA batched forest predict, and per-context vs
//       batched clock/SRAM/logic group predict -> identical doubles,
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

#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/events.hpp"
#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "ml/gbt.hpp"
#include "power/golden.hpp"
#include "serve/engine.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "testcore/generators.hpp"
#include "testcore/proptest.hpp"
#include "util/archive.hpp"
#include "util/rng.hpp"
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
// Oracle (b): per-sample predict vs the flattened SoA batched paths.

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

// Oracle (b), group level: per-context vs batched power-group predict.
//
// Every clock / SRAM / logic model evaluates its power formula (Eq. 7,
// Eq. 9-10, Eq. 11-12) over a whole batch in predict_batch.  Element i of
// a batch must equal predict(ctxs[i]) for each of the 22 components,
// wherever row i lands relative to predict_rows' 64-row block and the
// SIMD tail; the batch sizes straddle both.

constexpr std::size_t kGroupBatchSizes[] = {1, 63, 64, 65, 129};

// Full-size models trained once on C1/C15.  The ablation variant (ridge
// alpha', SRAM activity without program features) takes the other
// branches of the clock and SRAM predict_batch.
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
          for (const arch::ComponentKind comp : arch::all_components()) {
            const auto& clock = model.clock_model(comp);
            const auto& sram = model.sram_model(comp);
            const auto& logic = model.logic_model(comp);
            const auto clock_batched = clock.predict_batch(batch);
            const auto sram_batched = sram.predict_batch(batch);
            std::vector<double> reg(size);
            std::vector<double> comb(size);
            logic.predict_batch(batch, reg, comb);
            for (std::size_t i = 0; i < size; ++i) {
              const double per_context[] = {clock.predict(batch[i]),
                                            sram.predict(batch[i]),
                                            logic.predict(batch[i])};
              const double batched[] = {clock_batched[i], sram_batched[i],
                                        reg[i] + comb[i]};
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

        // Same instance again: the instance PhaseRates memo answers.
        const auto ev_memo = cold.simulate(c.cfg, c.wl);
        if (auto d = events_diff(ev_cold, ev_memo, "instance memo")) {
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
