// SIMD kernel layer with runtime CPU dispatch.
//
// The one dispatched kernel is forest inference (forest_leaf_add, the
// padded-tree walk behind ml::GBTRegressor's batch predict), called
// through a per-process kernel table selected once from cpuid: scalar or
// AVX2.  It is the only kernel whose AVX2 body wins on the ledger (~2x,
// enforced by bench_train_throughput); the other numeric loops are plain
// scalar code at their call sites (see DESIGN.md "SIMD dispatch").
// Three properties the rest of the repository relies on:
//
//   * Bit-identity across tiers.  The vector kernel performs, per output
//     row, exactly the operation sequence of its scalar twin —
//     vectorisation is only ever *across* independent rows, never across
//     a reduction whose order affects the result.  The differential
//     oracle in tests/test_simd.cpp pins it to its scalar twin over
//     random sizes, depths, NaNs and denormals.
//   * No ISA leakage.  AVX2 code lives only in simd_avx2.cpp, the only
//     translation unit compiled with -mavx2 (tools/check.sh fails the
//     build if the flag appears anywhere else).  This header stays
//     intrinsics-free and inline-function-free so including it can
//     never materialise AVX2 code in a caller's TU.
//   * Observability.  The selected tier is published as the
//     `util.simd.tier` gauge (0 scalar / 2 avx2) so --stats
//     snapshots, bench JSON and the daemon health response all say
//     which code path produced their numbers.
//
// Tier selection: highest tier the CPU supports, capped by the
// AUTOPOWER_SIMD environment variable (scalar | avx2).  An
// unknown value, or a request for a tier the CPU lacks, falls back to
// auto-detection.  set_active_tier() re-points the dispatch table at
// runtime — a bench/test hook for measuring and differencing tiers in
// one process; it is not meant to be called concurrently with kernel
// users.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace autopower::util::simd {

/// Instruction-set tier, ordered: a higher tier implies the lower ones.
/// The values are published (util.simd.tier, daemon simd_tier); 1 was
/// the retired SSE2 tier and stays unused.
enum class Tier : int { kScalar = 0, kAvx2 = 2 };

/// One padded perfect tree of the forest-inference layout.  A fitted
/// tree of depth d is mirrored into a complete binary tree in
/// breadth-first order: `feature`/`threshold` hold its 2^d - 1 interior
/// slots, `weight` its 2^d leaf slots, and every leaf of the original
/// tree is replicated across all leaf slots of its padded subtree (so
/// the walk direction through padded interior slots cannot matter).
/// Node k's children are 2k+1 (x[feature[k]] < threshold[k]) and 2k+2;
/// depth <= kMaxPaddedDepth so the 2^d - 1 condition bits fit a 32-bit
/// lane.
struct PaddedTreeView {
  const std::int32_t* feature;
  const double* threshold;
  const double* weight;
  std::int32_t depth;
};

/// Deepest tree the padded layout accepts: 2^5 - 1 = 31 interior
/// condition bits is the most a per-row 32-bit mask lane can carry.
/// ml::GBTRegressor walks deeper trees with the scalar
/// RegressionTree::predict instead.
inline constexpr std::int32_t kMaxPaddedDepth = 5;

/// The dispatched kernel table; forest_leaf_add is never null.
struct KernelTable {
  Tier tier;

  /// Forest inference over one padded tree and one column-major block:
  /// out[i] += lr * leaf_weight(row i), where cols[f*col_stride + i] is
  /// feature f of block row i.  Vectorised across rows; per row the
  /// multiply-then-add matches the scalar walk bit for bit.
  void (*forest_leaf_add)(const PaddedTreeView& tree, const double* cols,
                          std::size_t col_stride, std::size_t rows, double lr,
                          double* out);
};

/// The active kernel table (initialised on first use from cpuid + the
/// AUTOPOWER_SIMD override).  Fetch once per operation, not per element.
[[nodiscard]] const KernelTable& kernels() noexcept;

/// The tier kernels() currently dispatches to.
[[nodiscard]] Tier active_tier() noexcept;

/// Highest tier this CPU can execute.
[[nodiscard]] Tier detect_best_tier() noexcept;

/// Table for an explicit tier, or nullptr when the CPU (or this build)
/// cannot run it.  kScalar always succeeds.
[[nodiscard]] const KernelTable* kernels_for(Tier tier) noexcept;

/// Re-points kernels() at `tier` (clamped to detect_best_tier()) and
/// updates the util.simd.tier gauge.  Returns the tier actually
/// installed.  Bench/test hook — do not call while other threads are
/// inside dispatched kernels.
Tier set_active_tier(Tier tier) noexcept;

/// "scalar" | "avx2".
[[nodiscard]] std::string_view tier_name(Tier tier) noexcept;

/// Parses an AUTOPOWER_SIMD value; std::nullopt for anything unknown.
[[nodiscard]] std::optional<Tier> parse_tier(std::string_view text) noexcept;

}  // namespace autopower::util::simd
