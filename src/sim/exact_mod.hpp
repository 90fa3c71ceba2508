// Exact a % d for a divisor fixed across a loop, without a hardware
// divide.
//
// The synthetic reference and branch streams reduce every raw 64-bit
// draw modulo a per-stream constant (footprint bytes, static branch
// count).  With m = floor((2^64 - 1) / d), q = mulhi(a, m) satisfies
// a/d - 1 < q <= a/d, so q is floor(a/d) or one less and r = a - q*d
// needs at most one subtraction of d.  The result equals a % d for
// every a, so the streams draw exactly what a `%` loop draws.
#pragma once

#include <cstdint>

#include "util/error.hpp"

namespace autopower::sim {

class ExactModulo {
 public:
  explicit ExactModulo(std::uint64_t d) : d_(d) {
    AP_REQUIRE(d > 0, "modulo by zero");
    m_ = ~std::uint64_t{0} / d;
  }

  [[nodiscard]] std::uint64_t operator()(std::uint64_t a) const noexcept {
    const auto q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(a) * m_) >> 64);
    const std::uint64_t r = a - q * d_;
    return r >= d_ ? r - d_ : r;
  }

 private:
  std::uint64_t d_;
  std::uint64_t m_;
};

}  // namespace autopower::sim
