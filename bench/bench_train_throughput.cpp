// Training-core throughput: the three fast paths of the training stack,
// each self-checked against the exact behaviour it replaces.
//
//   1. Tree building — GBT fit at n=2000 with the presorted exact-greedy
//      builder vs the per-node re-sorting reference.  The ensembles must
//      be byte-identical (same splits, same tie-breaking); the fast
//      builder must clear a 3x speedup bar.
//   2. Batched inference — predict_all (prefix grid table, then the
//      padded-forest walk) vs a per-sample predict() loop.  Bit-identical
//      outputs; 2x bar, single-threaded.  Fit on 2000 rows, the forest's
//      first trees already span the table's 2048-cell cap, so only 3 of
//      its 60 trees are tabled and the bars here keep measuring the walk.
//   2b. SIMD tier differencing — predict_all with the kernel table forced
//      to scalar vs the host's best tier (util/simd.hpp).  Bit-identical
//      outputs; the 2x bar is enforced only on AVX2 hosts (reported
//      otherwise, like the train bar below).
//   3. Parallel sub-model fitting — AutoPowerModel::train at 4 threads vs
//      1.  Archives must be byte-identical at any thread count; the
//      wall-clock speedup bar applies only when the host has at least as
//      many hardware threads as pool workers (otherwise the pool can only
//      interleave, so the speedup is reported but not enforced).
//
// The bench FAILS (exit 1) on any identity violation or missed bar.
// `--json <path>` additionally writes the headline numbers for
// tools/check.sh to collect.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/autopower.hpp"
#include "exp/dataset.hpp"
#include "ml/gbt.hpp"
#include "power/golden.hpp"
#include "sim/perfsim.hpp"
#include "util/archive.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace autopower;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Activity-model-shaped data: a few informative columns, duplicate-heavy
// discrete columns, and one constant column, like real (H, E) matrices
// where hardware parameters repeat across workloads.
ml::Dataset synthetic_dataset(std::size_t n) {
  ml::Dataset data({"h0", "h1", "h2", "e0", "e1", "e2", "konst", "coarse"});
  util::Rng rng(99);
  for (std::size_t i = 0; i < n; ++i) {
    const double h0 = std::floor(rng.next_range(1.0, 5.0));
    const double h1 = std::floor(rng.next_range(0.0, 3.0)) * 16.0;
    const double h2 = std::floor(rng.next_range(0.0, 2.0));
    const double e0 = rng.next_range(0.0, 1.0);
    const double e1 = rng.next_range(0.0, 1.0);
    const double e2 = rng.next_range(0.0, 0.2);
    const double coarse = std::floor(rng.next_range(0.0, 20.0)) / 20.0;
    const double y = h0 * e0 + 0.02 * h1 * (e1 > 0.5 ? 1.0 : 0.3) +
                     h2 * coarse + 5.0 * e2 + rng.next_range(-0.05, 0.05);
    data.add_sample(std::array{h0, h1, h2, e0, e1, e2, 2.5, coarse}, y);
  }
  return data;
}

std::string gbt_archive(const ml::GBTRegressor& model) {
  std::ostringstream os;
  util::ArchiveWriter w(os);
  model.save(w);
  return os.str();
}

std::string model_archive(const core::AutoPowerModel& model) {
  std::ostringstream os;
  model.save(os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  bool ok = true;

  // --- 1. Presorted exact-greedy tree building ---------------------------
  const auto data = synthetic_dataset(2000);
  ml::GbtOptions gbt_opts{.num_rounds = 60,
                          .learning_rate = 0.15,
                          .tree = {.max_depth = 4, .lambda = 1.0}};
  ml::GbtOptions ref_opts = gbt_opts;
  ref_opts.tree.reference_split_search = true;

  ml::GBTRegressor reference(ref_opts);
  auto start = std::chrono::steady_clock::now();
  reference.fit(data);
  const double ref_fit_s = seconds_since(start);

  ml::GBTRegressor fast(gbt_opts);
  start = std::chrono::steady_clock::now();
  fast.fit(data);
  const double fast_fit_s = seconds_since(start);

  const double fit_speedup = ref_fit_s / fast_fit_s;
  const bool fit_identical = gbt_archive(fast) == gbt_archive(reference);
  std::printf("GBT fit, n=2000, reference : %.3f s\n", ref_fit_s);
  std::printf("GBT fit, n=2000, presorted : %.3f s  (%.2fx, bar 3.00x)\n",
              fast_fit_s, fit_speedup);
  std::printf("ensembles byte-identical   : %s\n",
              fit_identical ? "yes" : "NO");
  if (!fit_identical) {
    std::printf("FAIL: presorted builder diverged from the reference\n");
    ok = false;
  }
  if (fit_speedup < 3.0) {
    std::printf("FAIL: presorted fit below the 3x bar\n");
    ok = false;
  }

  // --- 2. Padded-forest batched inference --------------------------------
  // Repeat the passes so the per-sample baseline runs long enough to time.
  constexpr int kPredictRepeats = 30;
  std::vector<double> per_sample(data.size());
  start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kPredictRepeats; ++rep) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      per_sample[i] = fast.predict(data.features(i));
    }
  }
  const double loop_s = seconds_since(start) / kPredictRepeats;

  std::vector<double> batched;
  start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kPredictRepeats; ++rep) {
    batched = fast.predict_all(data);
  }
  const double batch_s = seconds_since(start) / kPredictRepeats;

  const double predict_speedup = loop_s / batch_s;
  bool predict_identical = batched.size() == per_sample.size();
  for (std::size_t i = 0; predict_identical && i < batched.size(); ++i) {
    predict_identical = batched[i] == per_sample[i];
  }
  std::printf("predict loop, per-sample   : %.2f Msamples/s  (%.4f s)\n",
              data.size() / loop_s / 1e6, loop_s);
  std::printf("predict_all, padded        : %.2f Msamples/s  (%.4f s, "
              "%.2fx, bar 2.00x)\n",
              data.size() / batch_s / 1e6, batch_s, predict_speedup);
  std::printf("predictions bit-identical  : %s\n",
              predict_identical ? "yes" : "NO");
  if (!predict_identical) {
    std::printf("FAIL: batched inference diverged from predict()\n");
    ok = false;
  }
  if (predict_speedup < 2.0) {
    std::printf("FAIL: batched inference below the 2x bar\n");
    ok = false;
  }

  // --- 2b. SIMD tier differencing on the padded forest -------------------
  // predict_all under a forced-scalar kernel table vs the host's best
  // tier.  The outputs must be bit-identical (the vector kernels promise
  // per-row op-order equality); the >= 2x speedup bar is enforced only
  // when the best tier is AVX2 — on scalar-only hosts the number is
  // reported, not enforced, mirroring the train_bar_enforced convention.
  const util::simd::Tier best_tier = util::simd::detect_best_tier();
  const util::simd::Tier entry_tier = util::simd::active_tier();

  // Interleave the two tiers in short batches and keep each tier's best
  // batch: a scheduler hiccup or frequency dip then penalises one batch,
  // not one whole tier's only measurement, so the ratio reflects the
  // kernels rather than which tier drew the noisy timeslice.
  constexpr int kTierBatches = 6;
  constexpr int kTierBatchReps = 5;
  double scalar_tier_s = std::numeric_limits<double>::infinity();
  double best_tier_s = std::numeric_limits<double>::infinity();
  std::vector<double> scalar_pred;
  std::vector<double> best_pred;
  for (int batch = 0; batch < kTierBatches; ++batch) {
    util::simd::set_active_tier(util::simd::Tier::kScalar);
    start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kTierBatchReps; ++rep) {
      scalar_pred = fast.predict_all(data);
    }
    scalar_tier_s =
        std::min(scalar_tier_s, seconds_since(start) / kTierBatchReps);

    util::simd::set_active_tier(best_tier);
    start = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kTierBatchReps; ++rep) {
      best_pred = fast.predict_all(data);
    }
    best_tier_s =
        std::min(best_tier_s, seconds_since(start) / kTierBatchReps);
  }
  util::simd::set_active_tier(entry_tier);

  const double simd_speedup = scalar_tier_s / best_tier_s;
  bool tiers_identical = scalar_pred.size() == best_pred.size();
  for (std::size_t i = 0; tiers_identical && i < scalar_pred.size(); ++i) {
    tiers_identical = scalar_pred[i] == best_pred[i];
  }
  const bool simd_bar_enforced = best_tier == util::simd::Tier::kAvx2;
  std::printf("predict_all, scalar tier   : %.2f Msamples/s  (%.4f s)\n",
              data.size() / scalar_tier_s / 1e6, scalar_tier_s);
  std::printf("predict_all, %-6s tier   : %.2f Msamples/s  (%.4f s, "
              "%.2fx, bar 2.00x)\n",
              std::string(util::simd::tier_name(best_tier)).c_str(),
              data.size() / best_tier_s / 1e6, best_tier_s, simd_speedup);
  std::printf("tiers bit-identical        : %s\n",
              tiers_identical ? "yes" : "NO");
  if (!tiers_identical) {
    std::printf("FAIL: %s tier diverged from the scalar kernels\n",
                std::string(util::simd::tier_name(best_tier)).c_str());
    ok = false;
  }
  if (!simd_bar_enforced) {
    std::printf("note: best tier is %s, not avx2; 2x bar reported, "
                "not enforced\n",
                std::string(util::simd::tier_name(best_tier)).c_str());
  } else if (simd_speedup < 2.0) {
    std::printf("FAIL: best SIMD tier below the 2x bar\n");
    ok = false;
  }

  // --- 3. Parallel sub-model fitting -------------------------------------
  sim::PerfSimulator sim;
  power::GoldenPowerModel golden;
  const auto exp_data = exp::ExperimentData::build(sim, golden);
  const auto known = exp::ExperimentData::training_configs(2);
  const auto contexts = exp_data.contexts_of(known);

  core::AutoPowerModel serial_model;
  start = std::chrono::steady_clock::now();
  serial_model.train(contexts, golden, 1);
  const double train1_s = seconds_since(start);

  core::AutoPowerModel parallel_model;
  start = std::chrono::steady_clock::now();
  parallel_model.train(contexts, golden, 4);
  const double train4_s = seconds_since(start);

  const double train_speedup = train1_s / train4_s;
  const bool archives_identical =
      model_archive(serial_model) == model_archive(parallel_model);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("AutoPower train, 1 thread  : %.3f s\n", train1_s);
  std::printf("AutoPower train, 4 threads : %.3f s  (%.2fx, %u hw threads)\n",
              train4_s, train_speedup, hw);
  std::printf("archives byte-identical    : %s\n",
              archives_identical ? "yes" : "NO");
  if (!archives_identical) {
    std::printf("FAIL: parallel training changed the trained model\n");
    ok = false;
  }
  // The wall-clock bar only means something when the host can actually run
  // the 4 pool workers at once; on smaller machines the pool interleaves,
  // so report the speedup but do not enforce it.
  const bool train_bar_enforced = hw >= 4;
  if (!train_bar_enforced) {
    std::printf("note: %u hw thread(s) < 4 pool workers; 1.2x bar reported, "
                "not enforced\n",
                hw);
  } else if (train_speedup < 1.2) {
    std::printf("FAIL: parallel training below the 1.2x bar\n");
    ok = false;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(
          f,
          "{\n"
          "  \"gbt_fit_reference_s\": %.6f,\n"
          "  \"gbt_fit_presorted_s\": %.6f,\n"
          "  \"gbt_fit_speedup\": %.3f,\n"
          "  \"predict_loop_s\": %.6f,\n"
          "  \"predict_all_s\": %.6f,\n"
          "  \"predict_speedup\": %.3f,\n"
          "  \"simd_tier\": \"%s\",\n"
          "  \"predict_scalar_tier_s\": %.6f,\n"
          "  \"predict_best_tier_s\": %.6f,\n"
          "  \"simd_predict_speedup\": %.3f,\n"
          "  \"simd_bar_enforced\": %s,\n"
          "  \"train_1thread_s\": %.6f,\n"
          "  \"train_4thread_s\": %.6f,\n"
          "  \"train_speedup\": %.3f,\n"
          "  \"train_bar_enforced\": %s,\n"
          "  \"hardware_threads\": %u,\n"
          "  \"bit_identical\": %s\n"
          "}\n",
          ref_fit_s, fast_fit_s, fit_speedup, loop_s, batch_s,
          predict_speedup,
          std::string(util::simd::tier_name(best_tier)).c_str(),
          scalar_tier_s, best_tier_s, simd_speedup,
          simd_bar_enforced ? "true" : "false", train1_s, train4_s,
          train_speedup, train_bar_enforced ? "true" : "false", hw,
          (fit_identical && predict_identical && tiers_identical &&
           archives_identical)
              ? "true"
              : "false");
      std::fclose(f);
    } else {
      std::printf("FAIL: cannot write %s\n", json_path.c_str());
      ok = false;
    }
  }

  std::printf(ok ? "PASS\n" : "FAIL\n");
  return ok ? 0 : 1;
}
