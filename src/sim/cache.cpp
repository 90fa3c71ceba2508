#include "sim/cache.hpp"

#include <algorithm>
#include <cmath>

#include "sim/exact_mod.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace autopower::sim {

namespace {
bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }
int log2i(int v) {
  int s = 0;
  while ((1 << s) < v) ++s;
  return s;
}
}  // namespace

SetAssocCache::SetAssocCache(int sets, int ways, int line_bytes)
    : sets_(sets), ways_(ways), line_bytes_(line_bytes) {
  AP_REQUIRE(is_pow2(sets), "cache sets must be a power of two");
  AP_REQUIRE(is_pow2(line_bytes), "cache line size must be a power of two");
  AP_REQUIRE(ways >= 1, "cache needs at least one way");
  line_shift_ = log2i(line_bytes);
  sets_shift_ = log2i(sets);
  tags_.resize(static_cast<std::size_t>(sets_) * ways_);
  fill_.assign(static_cast<std::size_t>(sets_), 0);
}

bool SetAssocCache::access(std::uint64_t address) {
  const std::uint64_t line = address >> line_shift_;
  const auto set = static_cast<std::size_t>(line & (sets_ - 1));
  const std::uint64_t tag = line >> sets_shift_;
  std::uint64_t* const tags = &tags_[set * static_cast<std::size_t>(ways_)];
  int& fill = fill_[set];

  int w = 0;
  while (w < fill && tags[w] != tag) ++w;
  const bool hit = w < fill;
  if (!hit) {  // fill a free way, or drop the least recently used tag
    w = fill < ways_ ? fill++ : ways_ - 1;
  }
  std::copy_backward(tags, tags + w, tags + w + 1);
  tags[0] = tag;
  return hit;
}

void SetAssocCache::reset() { std::fill(fill_.begin(), fill_.end(), 0); }

double measure_miss_rate(SetAssocCache& cache, const StreamProfile& profile,
                         int accesses) {
  AP_REQUIRE(accesses > 0, "need a positive access count");
  cache.reset();
  util::Rng rng(util::hash_combine(profile.seed, 0xcafef00dULL));

  const auto footprint_bytes = static_cast<std::uint64_t>(
      std::max(1.0, profile.footprint_kb * 1024.0));
  // Both reductions are `% footprint_bytes`; the random one draws exactly
  // what rng.next_below(footprint_bytes) would.
  const ExactModulo footprint(footprint_bytes);
  std::uint64_t seq_cursor = 0;
  int misses = 0;
  for (int i = 0; i < accesses; ++i) {
    std::uint64_t addr;
    if (rng.next_unit() < profile.stride_frac) {
      seq_cursor = footprint(
          seq_cursor + static_cast<std::uint64_t>(profile.stride_bytes));
      addr = seq_cursor;
    } else {
      addr = footprint(rng.next_u64());
    }
    if (!cache.access(addr)) ++misses;
  }
  return static_cast<double>(misses) / accesses;
}

}  // namespace autopower::sim
