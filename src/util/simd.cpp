// Scalar kernel tier + runtime dispatch for util/simd.hpp.
//
// The scalar kernel here is the reference semantics the AVX2 tier must
// reproduce bit for bit — a deliberately plain row loop with no manual
// unrolling, so reading it tells you the exact per-row operation
// sequence the AVX2 twin promises to match.  This TU is compiled with
// the project-default flags only (no -mavx2): it must run on any
// x86-64, and the AVX2 kernel's tail rows get this baseline codegen,
// not a re-materialised copy under its own ISA flags.

#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "util/metrics.hpp"
#include "util/simd_internal.hpp"

namespace autopower::util::simd {

namespace detail {

void scalar_forest_leaf_add(const PaddedTreeView& tree, const double* cols,
                            std::size_t col_stride, std::size_t rows,
                            double lr, double* out) {
  const std::int32_t interior = (1 << tree.depth) - 1;
  for (std::size_t i = 0; i < rows; ++i) {
    std::int32_t idx = 0;
    for (std::int32_t level = 0; level < tree.depth; ++level) {
      const double x =
          cols[static_cast<std::size_t>(tree.feature[idx]) * col_stride + i];
      // NaN compares false -> right child, matching the fitted walk.
      // Arithmetic on the comparison, not a branch: split directions are
      // data-dependent, so a branch would mispredict often.
      idx = 2 * idx + 2 - static_cast<std::int32_t>(x < tree.threshold[idx]);
    }
    out[i] += lr * tree.weight[idx - interior];
  }
}

}  // namespace detail

namespace {

constexpr KernelTable kScalarTable = {
    Tier::kScalar,
    detail::scalar_forest_leaf_add,
};

void publish_tier_gauge(Tier tier) {
  MetricsRegistry::global()
      .gauge("util.simd.tier")
      .set(static_cast<double>(static_cast<int>(tier)));
}

/// First-use resolution: detected best tier, capped by AUTOPOWER_SIMD.
const KernelTable* resolve_initial_table() {
  Tier tier = detect_best_tier();
  if (const char* env = std::getenv("AUTOPOWER_SIMD")) {
    if (const auto requested = parse_tier(env);
        requested.has_value() && *requested <= tier) {
      tier = *requested;
    }
  }
  const KernelTable* table = kernels_for(tier);
  publish_tier_gauge(table->tier);
  return table;
}

std::atomic<const KernelTable*>& active_table() {
  static std::atomic<const KernelTable*> table{resolve_initial_table()};
  return table;
}

}  // namespace

const KernelTable& kernels() noexcept {
  return *active_table().load(std::memory_order_relaxed);
}

Tier active_tier() noexcept { return kernels().tier; }

Tier detect_best_tier() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && avx2_kernel_table() != nullptr) {
    return Tier::kAvx2;
  }
#endif
  return Tier::kScalar;
}

const KernelTable* kernels_for(Tier tier) noexcept {
  switch (tier) {
    case Tier::kAvx2:
      return detect_best_tier() >= Tier::kAvx2 ? avx2_kernel_table() : nullptr;
    case Tier::kScalar:
      return &kScalarTable;
  }
  return nullptr;
}

Tier set_active_tier(Tier tier) noexcept {
  const KernelTable* table = kernels_for(tier);
  if (table == nullptr) table = kernels_for(detect_best_tier());
  if (table == nullptr) table = &kScalarTable;
  active_table().store(table, std::memory_order_relaxed);
  publish_tier_gauge(table->tier);
  return table->tier;
}

std::string_view tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
  }
  return "scalar";
}

std::optional<Tier> parse_tier(std::string_view text) noexcept {
  if (text == "scalar") return Tier::kScalar;
  if (text == "avx2") return Tier::kAvx2;
  return std::nullopt;
}

}  // namespace autopower::util::simd
