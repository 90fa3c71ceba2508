// Differential oracles for the SIMD kernel layer (util/simd.hpp).
//
// The dispatched kernel (forest_leaf_add) claims BIT-identity with its
// scalar twin.  These properties pin that claim over random sizes
// (including 0 and every tail length below the vector width), depths,
// NaNs and denormals, for every tier the host can execute:
//
//   (a) the forest_leaf_add entry of each KernelTable vs the scalar
//       table, element-exact,
//   (b) GBT predict_all / predict_rows and the presorted tree builder
//       (fit -> archive bytes) across tiers via set_active_tier(),
//   (c) the AUTOPOWER_SIMD environment override, exercised in a child
//       process per tier name (this binary re-runs itself with
//       --print-tier, which prints the resolved tier and exits).
//
// Like test_differential, this binary has a custom main() accepting
// --seed=N / --cases=N (see testcore/proptest.hpp).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/gbt.hpp"
#include "testcore/generators.hpp"
#include "testcore/proptest.hpp"
#include "testcore/tier_guard.hpp"
#include "util/archive.hpp"
#include "util/simd.hpp"

namespace autopower {
namespace {

using testcore::Pcg32;
using testcore::TierGuard;
using util::simd::KernelTable;
using util::simd::PaddedTreeView;
using util::simd::Tier;

// Path of this test binary, for the --print-tier subprocess tests.
std::string g_self_path;  // NOLINT

// ---------------------------------------------------------------------
// Helpers.

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Bit-exact vector comparison; names the first mismatching element.
/// Exception: two NaNs compare equal regardless of sign/payload.  When
/// BOTH operands of an x86 add/mul are NaN the hardware propagates the
/// *first* operand's NaN, and which operand the scalar twin's compiled
/// code puts first is the compiler's choice (addition commutes) — it
/// differs between the -O2 and sanitizer builds.  Finite results,
/// signed zeros, denormals and single-NaN propagation stay pinned bit
/// for bit; only the sign/payload of a NaN produced from two NaN
/// operands is unspecified, and no production input feeds NaN into
/// these kernels anyway (NaN thresholds in the forest kernel are
/// compared, never arithmetically combined).
std::optional<std::string> diff_doubles(const std::vector<double>& ref,
                                        const std::vector<double>& got,
                                        const std::string& what) {
  if (ref.size() != got.size()) {
    return what + ": size " + std::to_string(ref.size()) + " vs " +
           std::to_string(got.size());
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::isnan(ref[i]) && std::isnan(got[i])) continue;
    if (bits(ref[i]) != bits(got[i])) {
      std::ostringstream msg;
      msg.precision(17);
      msg << what << ": element " << i << " differs: " << ref[i] << " (0x"
          << std::hex << bits(ref[i]) << ") vs " << std::dec << got[i]
          << " (0x" << std::hex << bits(got[i]) << ")";
      return msg.str();
    }
  }
  return std::nullopt;
}

/// Random double from a palette that stresses the kernels: ordinary
/// finite values, huge/tiny magnitudes, denormals, zeros and NaN/inf.
double stress_double(Pcg32& rng, bool allow_non_finite) {
  switch (rng.next_int(0, allow_non_finite ? 7 : 5)) {
    case 0: return rng.next_range(-1e3, 1e3);
    case 1: return rng.next_range(-1.0, 1.0) * 1e300;
    case 2: return rng.next_range(-1.0, 1.0) * 1e-300;
    case 3:  // denormal
      return static_cast<double>(rng.next_int(1, 100)) *
             std::numeric_limits<double>::denorm_min();
    case 4: return rng.next_bool() ? 0.0 : -0.0;
    case 5: return rng.next_range(-1e6, 1e6);
    case 6: return std::numeric_limits<double>::quiet_NaN();
    default:
      return rng.next_bool() ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity();
  }
}

std::vector<double> stress_vector(Pcg32& rng, std::size_t n,
                                  bool allow_non_finite) {
  std::vector<double> out(n);
  for (double& v : out) v = stress_double(rng, allow_non_finite);
  return out;
}

/// Tiers with a table on this host, scalar first (the reference).
std::vector<const KernelTable*> available_tables() {
  std::vector<const KernelTable*> out;
  for (Tier t : {Tier::kScalar, Tier::kAvx2}) {
    if (const KernelTable* kt = util::simd::kernels_for(t)) out.push_back(kt);
  }
  return out;
}

std::string gbt_archive(const ml::GBTRegressor& model) {
  std::ostringstream out;
  util::ArchiveWriter writer(out);
  model.save(writer);
  return out.str();
}

// ---------------------------------------------------------------------
// (a) Raw kernel oracle: every tier's forest_leaf_add vs the scalar
// table.  Row counts sweep 0..18, past the AVX2 kernel's 16-row block,
// so every tail length is hit.

TEST(SimdKernels, ForestLeafAddMatchesScalarOnAllTiers) {
  const auto tables = available_tables();
  const auto result = testcore::run_property<std::uint64_t>(
      {.name = "simd.forest_leaf_add", .cases = 300},
      [](Pcg32& rng) { return rng.next_u64(); },
      [&tables](const std::uint64_t& seed) -> std::optional<std::string> {
        Pcg32 rng(seed);
        // A raw padded tree: the kernel contract holds for arbitrary
        // feature/threshold/weight arrays (the walk only consults
        // condition bits along one root-to-leaf path), so no leaf-
        // replication invariant is needed here.
        const auto depth =
            static_cast<std::int32_t>(rng.next_int(0, util::simd::kMaxPaddedDepth));
        const std::size_t interior = (std::size_t{1} << depth) - 1;
        const std::size_t leaves = std::size_t{1} << depth;
        const std::size_t features = 1 + rng.index(6);
        std::vector<std::int32_t> feature(interior);
        for (auto& f : feature) {
          f = static_cast<std::int32_t>(rng.index(features));
        }
        // Thresholds stay finite-or-NaN; the comparison (x < t, false
        // for NaN) is the interesting edge, exercised from the x side
        // too since the columns carry NaN/denormals.
        std::vector<double> threshold(interior);
        for (double& t : threshold) {
          t = rng.next_bool(0.1) ? std::numeric_limits<double>::quiet_NaN()
                                 : rng.next_range(-10.0, 10.0);
        }
        const auto weight = stress_vector(rng, leaves, false);
        const PaddedTreeView tree{feature.data(), threshold.data(),
                                  weight.data(), depth};

        const std::size_t rows = static_cast<std::size_t>(rng.next_int(0, 19));
        const std::size_t col_stride = rows + rng.index(4);
        const auto cols =
            stress_vector(rng, features * std::max<std::size_t>(col_stride, 1),
                          true);
        const double lr = rng.next_range(0.01, 1.0);
        const auto out0 = stress_vector(rng, rows, false);

        std::vector<double> ref;
        for (const KernelTable* kt : tables) {
          auto out = out0;
          kt->forest_leaf_add(tree, cols.data(), col_stride, rows, lr,
                              out.data());
          if (kt->tier == Tier::kScalar) {
            ref = out;
            continue;
          }
          if (auto d = diff_doubles(
                  ref, out,
                  std::string("forest_leaf_add ") +
                      std::string(util::simd::tier_name(kt->tier)) +
                      " depth=" + std::to_string(depth) +
                      " rows=" + std::to_string(rows))) {
            return d;
          }
        }
        return std::nullopt;
      });
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// (b) End-to-end tier differencing: the model layer must produce the
// same bits whichever tier is dispatched.

TEST(SimdTiers, GbtPredictIsBitIdenticalAcrossTiers) {
  TierGuard guard;
  const Tier best = util::simd::detect_best_tier();
  if (best == Tier::kScalar) GTEST_SKIP() << "host has no vector tier";

  const auto result = testcore::run_property<std::uint64_t>(
      {.name = "simd.gbt_predict_tiers", .cases = 40},
      [](Pcg32& rng) { return rng.next_u64(); },
      [best](const std::uint64_t& seed) -> std::optional<std::string> {
        Pcg32 rng(seed);
        const auto data = testcore::random_dataset(rng, {});
        const auto opt = testcore::random_gbt_options(rng);

        util::simd::set_active_tier(Tier::kScalar);
        ml::GBTRegressor model(opt);
        model.fit(data);
        const auto scalar_pred = model.predict_all(data);

        util::simd::set_active_tier(best);
        const auto vector_pred = model.predict_all(data);
        util::simd::set_active_tier(Tier::kScalar);
        return diff_doubles(scalar_pred, vector_pred,
                            "predict_all scalar vs " +
                                std::string(util::simd::tier_name(best)));
      });
  ASSERT_TRUE(result.passed) << result.report;
}

TEST(SimdTiers, TreeBuilderArchivesAreByteIdenticalAcrossTiers) {
  TierGuard guard;
  const Tier best = util::simd::detect_best_tier();
  if (best == Tier::kScalar) GTEST_SKIP() << "host has no vector tier";

  const auto result = testcore::run_property<std::uint64_t>(
      {.name = "simd.tree_fit_tiers", .cases = 40},
      [](Pcg32& rng) { return rng.next_u64(); },
      [best](const std::uint64_t& seed) -> std::optional<std::string> {
        Pcg32 rng(seed);
        const auto data = testcore::random_dataset(rng, {});
        const auto opt = testcore::random_gbt_options(rng);

        util::simd::set_active_tier(Tier::kScalar);
        ml::GBTRegressor scalar_model(opt);
        scalar_model.fit(data);
        const std::string scalar_bytes = gbt_archive(scalar_model);

        util::simd::set_active_tier(best);
        ml::GBTRegressor vector_model(opt);
        vector_model.fit(data);
        const std::string vector_bytes = gbt_archive(vector_model);
        util::simd::set_active_tier(Tier::kScalar);

        if (scalar_bytes != vector_bytes) {
          return std::string("fit archives differ between scalar and ") +
                 std::string(util::simd::tier_name(best));
        }
        return std::nullopt;
      });
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatch, TierTablesAndNamesAreConsistent) {
  TierGuard guard;
  const Tier best = util::simd::detect_best_tier();
  ASSERT_NE(util::simd::kernels_for(Tier::kScalar), nullptr);
  EXPECT_EQ(util::simd::kernels_for(Tier::kScalar)->tier, Tier::kScalar);
  for (Tier t : {Tier::kScalar, Tier::kAvx2}) {
    const KernelTable* kt = util::simd::kernels_for(t);
    if (t <= best) {
      ASSERT_NE(kt, nullptr) << "tier <= best must have a table";
      EXPECT_EQ(kt->tier, t);
      EXPECT_NE(kt->forest_leaf_add, nullptr);
    } else {
      EXPECT_EQ(kt, nullptr) << "tier above best must be unavailable";
    }
  }

  EXPECT_EQ(util::simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_EQ(util::simd::tier_name(Tier::kAvx2), "avx2");
  EXPECT_EQ(util::simd::parse_tier("scalar"), Tier::kScalar);
  EXPECT_EQ(util::simd::parse_tier("avx2"), Tier::kAvx2);
  EXPECT_EQ(util::simd::parse_tier("sse2"), std::nullopt);  // retired tier
  EXPECT_EQ(util::simd::parse_tier("AVX2"), std::nullopt);
  EXPECT_EQ(util::simd::parse_tier(""), std::nullopt);
  EXPECT_EQ(util::simd::parse_tier("bogus"), std::nullopt);
}

TEST(SimdDispatch, SetActiveTierClampsAndSwitches) {
  TierGuard guard;
  const Tier best = util::simd::detect_best_tier();

  EXPECT_EQ(util::simd::set_active_tier(Tier::kScalar), Tier::kScalar);
  EXPECT_EQ(util::simd::active_tier(), Tier::kScalar);
  EXPECT_EQ(util::simd::kernels().tier, Tier::kScalar);

  // A request above the host's capability clamps to the detected best.
  EXPECT_EQ(util::simd::set_active_tier(Tier::kAvx2), best);
  EXPECT_EQ(util::simd::active_tier(), best);
  EXPECT_EQ(util::simd::kernels().tier, best);
}

// ---------------------------------------------------------------------
// (c) AUTOPOWER_SIMD environment override, observed from a child
// process (the override is read once at first dispatch, so it cannot be
// tested in-process).  The child is this very binary run with
// --print-tier, which prints the resolved tier number and exits.

int tier_in_subprocess(const std::string& env_value) {
  const std::string cmd = "AUTOPOWER_SIMD='" + env_value + "' '" +
                          g_self_path + "' --print-tier 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[32] = {};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  const int status = pclose(pipe);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return std::atoi(buf);
}

TEST(SimdDispatch, EnvOverrideSelectsEachAvailableTier) {
  const Tier best = util::simd::detect_best_tier();
  // Forcing scalar always works, on any host.
  EXPECT_EQ(tier_in_subprocess("scalar"), static_cast<int>(Tier::kScalar));
  // Unknown values (the retired "sse2" among them) and requests above
  // the host's capability fall back to auto-detection.
  EXPECT_EQ(tier_in_subprocess("bogus"), static_cast<int>(best));
  EXPECT_EQ(tier_in_subprocess("sse2"), static_cast<int>(best));
  EXPECT_EQ(tier_in_subprocess("avx2"),
            static_cast<int>(std::min(Tier::kAvx2, best)));
}

}  // namespace
}  // namespace autopower

int main(int argc, char** argv) {
  // Subprocess mode for the env-override tests: print the tier the
  // dispatcher resolved (after AUTOPOWER_SIMD) and exit.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--print-tier") {
      std::printf("%d\n",
                  static_cast<int>(autopower::util::simd::active_tier()));
      return 0;
    }
  }
  autopower::g_self_path = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  autopower::testcore::apply_cli_flags(&argc, argv);
  return RUN_ALL_TESTS();
}
