// AVX2 kernel tier.  This is the ONLY translation unit compiled with
// -mavx2 (tools/check.sh verifies that via compile_commands.json), so
// the includes stay minimal: pulling a heavy header in here could
// materialise its inline functions under -mavx2 and let the linker pick
// those comdat copies for TUs that must run without AVX2.
//
// Bit-identity notes (each kernel's scalar twin is in simd.cpp):
//   * No FMA intrinsics anywhere.  The project compiles ISO C++
//     (-ffp-contract=off), so scalar code is mul-then-add; every vector
//     kernel uses separate _mm256_mul_pd/_mm256_add_pd to match.
//   * Vectorisation is across output elements only; per-element
//     operation order is exactly the scalar sequence.
//   * Gather index arguments are < 2^31, so signed i32/i64 gather
//     indices cannot wrap.
//   * The u64 -> double conversion in rng_fill_unit is exact in every
//     lane (see the comment there), so it equals the scalar
//     static_cast bit for bit.

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

void avx2_axpy(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void avx2_sub_div(const double* x, const double* mean, const double* scale,
                  double* out, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d num =
        _mm256_sub_pd(_mm256_loadu_pd(x + j), _mm256_loadu_pd(mean + j));
    _mm256_storeu_pd(out + j, _mm256_div_pd(num, _mm256_loadu_pd(scale + j)));
  }
  for (; j < n; ++j) out[j] = (x[j] - mean[j]) / scale[j];
}

void avx2_gather(const double* src, const std::uint32_t* idx, double* out,
                 std::size_t n) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m128i iv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + k));
    _mm256_storeu_pd(out + k, _mm256_i32gather_pd(src, iv, 8));
  }
  for (; k < n; ++k) out[k] = src[idx[k]];
}

void avx2_strided_gather(const double* src, std::size_t stride, double* out,
                         std::size_t n) {
  const std::int64_t s = static_cast<std::int64_t>(stride);
  __m256i iv = _mm256_set_epi64x(3 * s, 2 * s, s, 0);
  const __m256i step = _mm256_set1_epi64x(4 * s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_i64gather_pd(src, iv, 8));
    iv = _mm256_add_epi64(iv, step);
  }
  for (; i < n; ++i) out[i] = src[i * stride];
}

void avx2_affine_rows(const double* rows, std::size_t arity,
                      std::size_t count, const double* coef, double intercept,
                      double* out) {
  const std::int64_t a = static_cast<std::int64_t>(arity);
  const __m256i step = _mm256_set1_epi64x(4 * a);
  __m256i base = _mm256_set_epi64x(3 * a, 2 * a, a, 0);
  const __m256d icv = _mm256_set1_pd(intercept);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // Four samples at once; per sample the accumulation is intercept
    // then coef[0], coef[1], ... exactly like the scalar predict loop.
    __m256d acc = icv;
    for (std::size_t j = 0; j < arity; ++j) {
      const __m256d cv = _mm256_set1_pd(coef[j]);
      const __m256d xv = _mm256_i64gather_pd(rows + j, base, 8);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(cv, xv));
    }
    _mm256_storeu_pd(out + i, acc);
    base = _mm256_add_epi64(base, step);
  }
  for (; i < count; ++i) {
    const double* r = rows + i * arity;
    double acc = intercept;
    for (std::size_t j = 0; j < arity; ++j) acc += coef[j] * r[j];
    out[i] = acc;
  }
}

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

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

/// 64x64 -> low 64 multiply by a broadcast constant (AVX2 has no
/// vpmullq): lo32*lo32 + ((hi32*lo32 + lo32*hi32) << 32).
inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i hi1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i hi2 = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  return _mm256_add_epi64(
      lo, _mm256_slli_epi64(_mm256_add_epi64(hi1, hi2), 32));
}

/// SplitMix64 finalizer on 4 lanes — same constants as util::mix64.
inline __m256i mix64x4(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(
                              static_cast<long long>(kGamma)));
  x = mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(
                static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  x = mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(
                static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

void avx2_rng_fill_u64(std::uint64_t base, std::uint64_t* out,
                       std::size_t n) {
  __m256i ctr = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(base)),
      _mm256_set_epi64x(static_cast<long long>(4 * kGamma),
                        static_cast<long long>(3 * kGamma),
                        static_cast<long long>(2 * kGamma),
                        static_cast<long long>(kGamma)));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kGamma));
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), mix64x4(ctr));
    ctr = _mm256_add_epi64(ctr, step);
  }
  if (k < n) {
    detail::scalar_rng_fill_u64(base + k * kGamma, out + k, n - k);
  }
}

void avx2_rng_fill_unit(std::uint64_t base, double* out, std::size_t n) {
  __m256i ctr = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(base)),
      _mm256_set_epi64x(static_cast<long long>(4 * kGamma),
                        static_cast<long long>(3 * kGamma),
                        static_cast<long long>(2 * kGamma),
                        static_cast<long long>(kGamma)));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * kGamma));
  // Low dwords of the four qwords, packed into a __m128i.
  const __m256i low_dwords = _mm256_set_epi32(0, 0, 0, 0, 6, 4, 2, 0);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    // hash_unit(next_u64()): two mix64 passes, then the top 53 bits as
    // a dyadic rational.
    const __m256i v = mix64x4(mix64x4(ctr));
    const __m256i v53 = _mm256_srli_epi64(v, 11);
    // Exact u64 -> f64 for values < 2^53: split into hi21 = v53 >> 31
    // (< 2^22) and lo31 = v53 & 0x7fffffff — both fit a SIGNED i32, so
    // cvtepi32_pd converts each exactly; hi21 * 2^31 is exact (product
    // < 2^53) and the final add is exact (integer sum < 2^53 is
    // representable).  Bit-identical to the scalar static_cast.
    const __m256i hi = _mm256_srli_epi64(v53, 31);
    const __m256i lo =
        _mm256_and_si256(v53, _mm256_set1_epi64x(0x7fffffffLL));
    const __m128i hi32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(hi, low_dwords));
    const __m128i lo32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(lo, low_dwords));
    const __m256d d = _mm256_add_pd(
        _mm256_mul_pd(_mm256_cvtepi32_pd(hi32), _mm256_set1_pd(0x1.0p31)),
        _mm256_cvtepi32_pd(lo32));
    _mm256_storeu_pd(out + k, _mm256_mul_pd(d, _mm256_set1_pd(0x1.0p-53)));
    ctr = _mm256_add_epi64(ctr, step);
  }
  if (k < n) {
    detail::scalar_rng_fill_unit(base + k * kGamma, out + k, n - k);
  }
}

constexpr KernelTable kAvx2Table = {
    Tier::kAvx2,        avx2_axpy,
    avx2_sub_div,       avx2_gather,
    avx2_strided_gather, avx2_affine_rows,
    avx2_forest_leaf_add, avx2_rng_fill_u64,
    avx2_rng_fill_unit,
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
