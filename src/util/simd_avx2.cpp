// AVX2 kernel tier.  This is the ONLY translation unit compiled with
// -mavx2 (tools/check.sh verifies that via compile_commands.json), so
// the includes stay minimal: pulling a heavy header in here could
// materialise its inline functions under -mavx2 and let the linker pick
// those comdat copies for TUs that must run without AVX2.
//
// Bit-identity notes (the kernel's scalar twin is in simd.cpp):
//   * No FMA intrinsics.  The project compiles ISO C++
//     (-ffp-contract=off), so scalar code is mul-then-add; the vector
//     kernel uses separate _mm256_mul_pd/_mm256_add_pd to match.
//   * Vectorisation is across rows only; per-row operation order is
//     exactly the scalar sequence.
//   * The leaf-weight gather indices are < 2^kMaxPaddedDepth, so the
//     signed i32 gather indices cannot wrap.

#if defined(__AVX2__)

// GCC's gather intrinsics initialise their pass-through operand with
// _mm256_undefined_pd(), which -Wmaybe-uninitialized flags even though
// the all-ones default mask makes it unreachable.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "util/simd_internal.hpp"

namespace autopower::util::simd {

namespace {

/// A row's at-most-31 condition bits (depth <= kMaxPaddedDepth = 5) fit
/// a 32-bit lane, so the mask accumulation and the walk run 8 rows per
/// register.  The condition compares are still 64-bit (doubles); each
/// pair of compare results is packed to one 8-lane truth register with a
/// single shuffle.  The pack maps rows [0,1,4,5 | 2,3,6,7] into lanes
/// (shuffle_ps works within 128-bit halves); the walk is lane-wise so any
/// consistent lane->row map works, and the weight permute before the
/// store undoes it.
void avx2_forest_leaf_add(const PaddedTreeView& tree, const double* cols,
                          std::size_t col_stride, std::size_t rows, double lr,
                          double* out) {
  const std::int32_t interior = (1 << tree.depth) - 1;
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  const __m256i top = _mm256_set1_epi32(interior - 1);
  const __m256i iv = _mm256_set1_epi32(interior);
  std::size_t i = 0;
  for (; i + 16 <= rows; i += 16) {
    // m = 2m + cond per 32-bit lane (the compare result is all-ones),
    // so node k's truth lands at bit position interior-1-k and no
    // per-node bit constant is needed.
    __m256i m0 = _mm256_setzero_si256();
    __m256i m1 = m0;
    for (std::int32_t k = 0; k < interior; ++k) {
      const double* c =
          cols + static_cast<std::size_t>(tree.feature[k]) * col_stride + i;
      // _CMP_LT_OQ: false for NaN, matching the scalar `x < thr`.
      const __m256d tv = _mm256_set1_pd(tree.threshold[k]);
      const __m256d l0 = _mm256_cmp_pd(_mm256_loadu_pd(c), tv, _CMP_LT_OQ);
      const __m256d l1 = _mm256_cmp_pd(_mm256_loadu_pd(c + 4), tv,
                                       _CMP_LT_OQ);
      const __m256d l2 = _mm256_cmp_pd(_mm256_loadu_pd(c + 8), tv,
                                       _CMP_LT_OQ);
      const __m256d l3 = _mm256_cmp_pd(_mm256_loadu_pd(c + 12), tv,
                                       _CMP_LT_OQ);
      const __m256 p0 = _mm256_shuffle_ps(_mm256_castpd_ps(l0),
                                          _mm256_castpd_ps(l1), 0x88);
      const __m256 p1 = _mm256_shuffle_ps(_mm256_castpd_ps(l2),
                                          _mm256_castpd_ps(l3), 0x88);
      m0 = _mm256_sub_epi32(_mm256_add_epi32(m0, m0),
                            _mm256_castps_si256(p0));
      m1 = _mm256_sub_epi32(_mm256_add_epi32(m1, m1),
                            _mm256_castps_si256(p1));
    }
    __m256i i0 = _mm256_setzero_si256();
    __m256i i1 = i0;
    for (std::int32_t level = 0; level < tree.depth; ++level) {
      const __m256i b0 = _mm256_and_si256(
          _mm256_srlv_epi32(m0, _mm256_sub_epi32(top, i0)), one);
      const __m256i b1 = _mm256_and_si256(
          _mm256_srlv_epi32(m1, _mm256_sub_epi32(top, i1)), one);
      // idx = 2*idx + 2 - bit  (bit set -> left child 2*idx + 1).
      i0 = _mm256_sub_epi32(
          _mm256_add_epi32(_mm256_add_epi32(i0, i0), two), b0);
      i1 = _mm256_sub_epi32(
          _mm256_add_epi32(_mm256_add_epi32(i1, i1), two), b1);
    }
    i0 = _mm256_sub_epi32(i0, iv);
    i1 = _mm256_sub_epi32(i1, iv);
    const __m256d w0 =
        _mm256_i32gather_pd(tree.weight, _mm256_castsi256_si128(i0), 8);
    const __m256d w1 =
        _mm256_i32gather_pd(tree.weight, _mm256_extracti128_si256(i0, 1), 8);
    const __m256d w2 =
        _mm256_i32gather_pd(tree.weight, _mm256_castsi256_si128(i1), 8);
    const __m256d w3 =
        _mm256_i32gather_pd(tree.weight, _mm256_extracti128_si256(i1, 1), 8);
    // w0 holds rows [0,1,4,5], w1 rows [2,3,6,7] (and likewise for the
    // second mask register); recombine into row order for the stores.
    const __m256d a = _mm256_permute2f128_pd(w0, w1, 0x20);  // rows 0-3
    const __m256d b = _mm256_permute2f128_pd(w0, w1, 0x31);  // rows 4-7
    const __m256d c = _mm256_permute2f128_pd(w2, w3, 0x20);  // rows 8-11
    const __m256d d = _mm256_permute2f128_pd(w2, w3, 0x31);  // rows 12-15
    _mm256_storeu_pd(out + i, _mm256_add_pd(_mm256_loadu_pd(out + i),
                                            _mm256_mul_pd(lrv, a)));
    _mm256_storeu_pd(out + i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(out + i + 4),
                                   _mm256_mul_pd(lrv, b)));
    _mm256_storeu_pd(out + i + 8,
                     _mm256_add_pd(_mm256_loadu_pd(out + i + 8),
                                   _mm256_mul_pd(lrv, c)));
    _mm256_storeu_pd(out + i + 12,
                     _mm256_add_pd(_mm256_loadu_pd(out + i + 12),
                                   _mm256_mul_pd(lrv, d)));
  }
  if (i < rows) {
    detail::scalar_forest_leaf_add(tree, cols + i, col_stride, rows - i, lr,
                                   out + i);
  }
}

constexpr KernelTable kAvx2Table = {
    Tier::kAvx2,
    avx2_forest_leaf_add,
};

}  // namespace

const KernelTable* avx2_kernel_table() noexcept { return &kAvx2Table; }

}  // namespace autopower::util::simd

#else  // !defined(__AVX2__)

#include "util/simd_internal.hpp"

namespace autopower::util::simd {
const KernelTable* avx2_kernel_table() noexcept { return nullptr; }
}  // namespace autopower::util::simd

#endif
