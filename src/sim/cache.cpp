#include "sim/cache.hpp"

#include <algorithm>
#include <cmath>

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
  ways_storage_.resize(static_cast<std::size_t>(sets_) * ways_);
}

bool SetAssocCache::access(std::uint64_t address) {
  const std::uint64_t line = address >> line_shift_;
  const auto set = static_cast<std::size_t>(line & (sets_ - 1));
  const std::uint64_t tag = line >> sets_shift_;
  Way* base = &ways_storage_[set * static_cast<std::size_t>(ways_)];
  ++stamp_;

  Way* victim = base;
  for (int w = 0; w < ways_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = stamp_;
      return true;
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = stamp_;
  return false;
}

void SetAssocCache::reset() {
  for (auto& way : ways_storage_) way = Way{};
  stamp_ = 0;
}

double measure_miss_rate(SetAssocCache& cache, const StreamProfile& profile,
                         int accesses) {
  AP_REQUIRE(accesses > 0, "need a positive access count");
  cache.reset();
  util::Rng rng(util::hash_combine(profile.seed, 0xcafef00dULL));

  const auto footprint_bytes = static_cast<std::uint64_t>(
      std::max(1.0, profile.footprint_kb * 1024.0));
  std::uint64_t seq_cursor = 0;
  int misses = 0;
  for (int i = 0; i < accesses; ++i) {
    std::uint64_t addr;
    if (rng.next_unit() < profile.stride_frac) {
      seq_cursor =
          (seq_cursor + static_cast<std::uint64_t>(profile.stride_bytes)) %
          footprint_bytes;
      addr = seq_cursor;
    } else {
      addr = rng.next_below(footprint_bytes);
    }
    if (!cache.access(addr)) ++misses;
  }
  return static_cast<double>(misses) / accesses;
}

}  // namespace autopower::sim
