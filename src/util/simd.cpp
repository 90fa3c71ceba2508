// Scalar kernel tier + runtime dispatch for util/simd.hpp.
//
// The scalar implementations here are the reference semantics every
// vector tier must reproduce bit for bit — they are deliberately plain
// element loops with no manual unrolling, so reading one tells you the
// exact per-element operation sequence the AVX2 twins promise to
// match.  This TU is compiled with the project-default flags only
// (no -mavx2): it must run on any x86-64, and a vector tier that
// borrows a scalar kernel for an unaccelerated slot gets this baseline
// codegen, not a re-materialised copy under its own ISA flags.

#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd_internal.hpp"

namespace autopower::util::simd {

namespace detail {

namespace {
constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
}  // namespace

void scalar_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scalar_sub_div(const double* x, const double* mean, const double* scale,
                    double* out, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = (x[j] - mean[j]) / scale[j];
}

void scalar_gather(const double* src, const std::uint32_t* idx, double* out,
                   std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) out[k] = src[idx[k]];
}

void scalar_strided_gather(const double* src, std::size_t stride, double* out,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = src[i * stride];
}

void scalar_affine_rows(const double* rows, std::size_t arity,
                        std::size_t count, const double* coef,
                        double intercept, double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const double* r = rows + i * arity;
    double acc = intercept;
    for (std::size_t j = 0; j < arity; ++j) acc += coef[j] * r[j];
    out[i] = acc;
  }
}

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

void scalar_rng_fill_u64(std::uint64_t base, std::uint64_t* out,
                         std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    base += kGamma;
    out[k] = mix64(base);
  }
}

void scalar_rng_fill_unit(std::uint64_t base, double* out, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    base += kGamma;
    out[k] = hash_unit(mix64(base));
  }
}

}  // namespace detail

namespace {

constexpr KernelTable kScalarTable = {
    Tier::kScalar,
    detail::scalar_axpy,
    detail::scalar_sub_div,
    detail::scalar_gather,
    detail::scalar_strided_gather,
    detail::scalar_affine_rows,
    detail::scalar_forest_leaf_add,
    detail::scalar_rng_fill_u64,
    detail::scalar_rng_fill_unit,
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
