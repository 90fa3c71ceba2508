// Tests for the set-associative cache model and synthetic streams.

#include <gtest/gtest.h>

#include <tuple>

#include "sim/cache.hpp"
#include "util/error.hpp"

namespace autopower::sim {
namespace {

TEST(Cache, GeometryValidation) {
  EXPECT_NO_THROW(SetAssocCache(64, 4, 64));
  EXPECT_THROW(SetAssocCache(63, 4, 64), util::InvalidArgument);
  EXPECT_THROW(SetAssocCache(64, 4, 60), util::InvalidArgument);
  EXPECT_THROW(SetAssocCache(64, 0, 64), util::InvalidArgument);
}

TEST(Cache, CapacityBytes) {
  SetAssocCache cache(64, 4, 64);
  EXPECT_EQ(cache.capacity_bytes(), 64u * 4u * 64u);
}

TEST(Cache, HitAfterFill) {
  SetAssocCache cache(16, 2, 64);
  EXPECT_FALSE(cache.access(0x1000));  // compulsory miss
  EXPECT_TRUE(cache.access(0x1000));   // now resident
  EXPECT_TRUE(cache.access(0x1030));   // same line
  EXPECT_FALSE(cache.access(0x1040));  // next line
}

TEST(Cache, LruEvictionOrder) {
  // Direct-mapped x 2 ways, 1 set worth of conflict: three lines mapping
  // to the same set evict the least recently used.
  SetAssocCache cache(1, 2, 64);
  EXPECT_FALSE(cache.access(0x0));    // A miss
  EXPECT_FALSE(cache.access(0x40));   // B miss
  EXPECT_TRUE(cache.access(0x0));     // A hit (B is LRU)
  EXPECT_FALSE(cache.access(0x80));   // C miss, evicts B
  EXPECT_TRUE(cache.access(0x0));     // A still resident
  EXPECT_FALSE(cache.access(0x40));   // B was evicted
}

TEST(Cache, ResetClears) {
  SetAssocCache cache(16, 2, 64);
  cache.access(0x1000);
  EXPECT_TRUE(cache.access(0x1000));
  cache.reset();
  EXPECT_FALSE(cache.access(0x1000));
}

TEST(Cache, SequentialStreamInsideCapacityHasLowMissRate) {
  SetAssocCache cache(64, 4, 64);  // 16 KiB
  StreamProfile s;
  s.footprint_kb = 8.0;  // fits
  s.stride_frac = 1.0;
  s.stride_bytes = 8;
  const double miss = measure_miss_rate(cache, s, 20000);
  // One miss per 8 sequential 8-byte refs in a 64-byte line on the first
  // pass, ~0 afterwards.
  EXPECT_LT(miss, 0.05);
}

TEST(Cache, RandomStreamOverCapacityMissesOften) {
  SetAssocCache cache(16, 2, 64);  // 2 KiB
  StreamProfile s;
  s.footprint_kb = 512.0;
  s.stride_frac = 0.0;
  const double miss = measure_miss_rate(cache, s, 20000);
  EXPECT_GT(miss, 0.9);
}

TEST(Cache, MissRateDeterministic) {
  SetAssocCache a(32, 4, 64);
  SetAssocCache b(32, 4, 64);
  StreamProfile s;
  s.footprint_kb = 64.0;
  s.stride_frac = 0.5;
  s.seed = 99;
  EXPECT_DOUBLE_EQ(measure_miss_rate(a, s, 10000),
                   measure_miss_rate(b, s, 10000));
}

TEST(Cache, MissRateMatchesRecordedStream) {
  // Pins the exact draw stream (one or two util::Rng draws per access,
  // data-dependent): 4993 misses in 10000 accesses.
  SetAssocCache cache(32, 4, 64);
  StreamProfile s;
  s.footprint_kb = 64.0;
  s.stride_frac = 0.5;
  s.seed = 99;
  EXPECT_EQ(measure_miss_rate(cache, s, 10000), 0x1.ff487fcb923a3p-2);
}

TEST(Cache, RejectsNonPositiveAccessCount) {
  SetAssocCache cache(16, 2, 64);
  StreamProfile s;
  EXPECT_THROW((void)measure_miss_rate(cache, s, 0),
               util::InvalidArgument);
}

// Property: miss rate decreases (weakly) with capacity and associativity.
class CacheScaling
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(CacheScaling, BiggerCachesMissLess) {
  const auto [ways, footprint] = GetParam();
  StreamProfile s;
  s.footprint_kb = footprint;
  s.stride_frac = 0.6;
  s.seed = 7;

  SetAssocCache small(32, ways, 64);
  SetAssocCache large(128, ways, 64);
  const double miss_small = measure_miss_rate(small, s, 30000);
  const double miss_large = measure_miss_rate(large, s, 30000);
  EXPECT_LE(miss_large, miss_small + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheScaling,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(4.0, 32.0, 256.0)));

TEST(Cache, AssociativityHelpsUnderConflicts) {
  // Same capacity, different associativity: higher associativity should
  // not be (much) worse on a mixed stream.
  StreamProfile s;
  s.footprint_kb = 24.0;
  s.stride_frac = 0.4;
  s.seed = 17;
  SetAssocCache direct(256, 1, 64);  // 16 KiB
  SetAssocCache assoc(32, 8, 64);    // 16 KiB
  const double miss_direct = measure_miss_rate(direct, s, 30000);
  const double miss_assoc = measure_miss_rate(assoc, s, 30000);
  EXPECT_LE(miss_assoc, miss_direct + 0.02);
}

}  // namespace
}  // namespace autopower::sim
