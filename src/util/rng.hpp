// Deterministic, counter-based random utilities.
//
// All stochastic behaviour in the synthetic substrates (synthesis noise,
// trace generation, activity jitter) is keyed on stable 64-bit hashes of the
// (configuration, component, workload, counter) tuple.  There is no global
// RNG state: the same inputs always produce bit-identical outputs, which
// keeps every experiment reproducible and every test stable.
#pragma once

#include <cstdint>
#include <string_view>

namespace autopower::util {

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit hashes (order-sensitive).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
  return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// FNV-1a hash of a string, for keying noise on component/workload names.
[[nodiscard]] constexpr std::uint64_t hash_str(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

/// Uniform double in [0, 1) derived from a 64-bit hash.
[[nodiscard]] constexpr double hash_unit(std::uint64_t h) noexcept {
  // Use the top 53 bits for a dyadic rational in [0, 1).
  return static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
}

/// Uniform double in [-1, 1) derived from a 64-bit hash.
[[nodiscard]] constexpr double hash_sym(std::uint64_t h) noexcept {
  return 2.0 * hash_unit(h) - 1.0;
}

/// Deterministic multiplicative noise: returns a factor in
/// [1 - amplitude, 1 + amplitude) keyed on `key`.
[[nodiscard]] constexpr double noise_factor(std::uint64_t key,
                                            double amplitude) noexcept {
  return 1.0 + amplitude * hash_sym(key);
}

/// A small counter-based PRNG (xoshiro-style stream over SplitMix64).
/// Stateless streams: `Rng(seed)` then `next_*()` walks a deterministic
/// sequence; copies are independent continuations.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) noexcept : state_(mix64(seed)) {}

  /// Next raw 64-bit value.
  constexpr std::uint64_t next_u64() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix64(state_);
  }

  /// Uniform double in [0, 1).
  constexpr double next_unit() noexcept { return hash_unit(next_u64()); }

  /// Uniform double in [lo, hi).
  constexpr double next_range(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_unit();
  }

  /// Uniform integer in [0, n).
  constexpr std::uint64_t next_below(std::uint64_t n) noexcept {
    return n == 0 ? 0 : next_u64() % n;
  }

  /// Approximately standard-normal deviate (sum of 4 uniforms, CLT;
  /// adequate for synthetic jitter, cheap and branch-free).
  constexpr double next_gauss() noexcept {
    double s = 0.0;
    for (int i = 0; i < 4; ++i) s += next_unit();
    return (s - 2.0) * 1.7320508075688772;  // variance-normalised
  }

 private:
  std::uint64_t state_;
};

double lognormal_factor(Rng& rng, double sigma);

}  // namespace autopower::util
