// Internal declarations shared between the simd dispatch TU and the
// flag-isolated kernel TU (simd_avx2.cpp).  Not part of the public API —
// include util/simd.hpp instead.
//
// Declarations only, no inline definitions: the kernel TU is compiled
// with -mavx2, and anything inline in a shared header could be
// materialised there with that flag and then picked (comdat) for the
// whole program.  The scalar kernels declared here are *defined* in
// simd.cpp, which uses project-default flags, so a vector tier that
// borrows one for an unaccelerated slot still gets baseline codegen.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace autopower::util::simd {

namespace detail {

void scalar_axpy(double a, const double* x, double* y, std::size_t n);
void scalar_sub_div(const double* x, const double* mean, const double* scale,
                    double* out, std::size_t n);
void scalar_gather(const double* src, const std::uint32_t* idx, double* out,
                   std::size_t n);
void scalar_strided_gather(const double* src, std::size_t stride, double* out,
                           std::size_t n);
void scalar_affine_rows(const double* rows, std::size_t arity,
                        std::size_t count, const double* coef,
                        double intercept, double* out);
void scalar_forest_leaf_add(const PaddedTreeView& tree, const double* cols,
                            std::size_t col_stride, std::size_t rows,
                            double lr, double* out);
void scalar_rng_fill_u64(std::uint64_t base, std::uint64_t* out,
                         std::size_t n);
void scalar_rng_fill_unit(std::uint64_t base, double* out, std::size_t n);

}  // namespace detail

/// The AVX2 tier table from the flag-isolated TU; nullptr when the build
/// was configured without the ISA (the TU guards on __AVX2__).
const KernelTable* avx2_kernel_table() noexcept;

}  // namespace autopower::util::simd
