// Internal declarations shared between the simd dispatch TU and the
// flag-isolated kernel TU (simd_avx2.cpp).  Not part of the public API —
// include util/simd.hpp instead.
//
// Declarations only, no inline definitions: the kernel TU is compiled
// with -mavx2, and anything inline in a shared header could be
// materialised there with that flag and then picked (comdat) for the
// whole program.  The scalar kernel declared here is *defined* in
// simd.cpp, which uses project-default flags, so the AVX2 kernel's tail
// rows still get baseline codegen.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace autopower::util::simd {

namespace detail {

void scalar_forest_leaf_add(const PaddedTreeView& tree, const double* cols,
                            std::size_t col_stride, std::size_t rows,
                            double lr, double* out);

}  // namespace detail

/// The AVX2 tier table from the flag-isolated TU; nullptr when the build
/// was configured without the ISA (the TU guards on __AVX2__).
const KernelTable* avx2_kernel_table() noexcept;

}  // namespace autopower::util::simd
