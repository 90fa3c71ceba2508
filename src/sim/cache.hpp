// Set-associative cache / TLB timing model used by the performance
// simulator to derive miss rates from synthetic reference streams.
//
// A genuine LRU cache simulation (not an analytic miss curve): the
// simulator drives it with a deterministic per-phase address stream mixing
// strided and random references over the phase's footprint, so miss rates
// respond to associativity, capacity and stream regularity the way a real
// cache does — including conflict effects at low associativity.
#pragma once

#include <cstdint>
#include <vector>

namespace autopower::sim {

/// LRU set-associative cache over 64-bit byte addresses.  Each set keeps
/// its resident tags in recency order (most recent first), so a hit moves
/// its tag to the front and a miss drops the last one once the set is
/// full: exact LRU, found by one scan of contiguous tags.
class SetAssocCache {
 public:
  /// line_bytes and sets must be powers of two.
  SetAssocCache(int sets, int ways, int line_bytes);

  /// Accesses one address; returns true on hit.  Allocates on miss.
  bool access(std::uint64_t address);

  void reset();

  [[nodiscard]] int sets() const noexcept { return sets_; }
  [[nodiscard]] int ways() const noexcept { return ways_; }
  [[nodiscard]] int line_bytes() const noexcept { return line_bytes_; }
  [[nodiscard]] std::uint64_t capacity_bytes() const noexcept {
    return static_cast<std::uint64_t>(sets_) * ways_ * line_bytes_;
  }

 private:
  int sets_;
  int ways_;
  int line_bytes_;
  int line_shift_;
  int sets_shift_;  // log2(sets_), hoisted out of the access hot loop
  std::vector<std::uint64_t> tags_;  // sets_ * ways_, row-major by set
  std::vector<int> fill_;            // resident tags per set
};

/// Parameters of a synthetic reference stream.
struct StreamProfile {
  double footprint_kb = 16.0;   ///< working-set size
  double stride_frac = 0.7;     ///< fraction of sequential references
  int stride_bytes = 8;         ///< step of the sequential component
  std::uint64_t seed = 1;       ///< stream identity
};

/// Runs `accesses` synthetic references through the cache and returns the
/// measured miss rate.  Deterministic in (cache geometry, profile).
[[nodiscard]] double measure_miss_rate(SetAssocCache& cache,
                                       const StreamProfile& profile,
                                       int accesses);

}  // namespace autopower::sim
