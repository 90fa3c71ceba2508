// Tests for the set-associative cache model and synthetic streams, and
// the equivalence of the cache and branch stream simulators with their
// reference implementations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "sim/exact_mod.hpp"
#include "testcore/proptest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

// ---------------------------------------------------------------------
// Equivalence with the reference simulators: a last-use-stamp LRU cache
// and the `%`-reduced stream loops.  Any exact LRU gives the same hit/miss
// sequence, and ExactModulo reduces the same draws to the same values, so
// every miss and mispredict rate must be equal to the last bit.

/// Stamp LRU: each way holds {tag, last-use stamp, valid}; a miss fills
/// an invalid way, else the valid way with the oldest stamp.
class StampLruCache {
 public:
  StampLruCache(int sets, int ways, int line_bytes)
      : sets_(sets), ways_(ways), ways_storage_(sets * ways) {
    while ((1 << line_shift_) < line_bytes) ++line_shift_;
    while ((1 << sets_shift_) < sets) ++sets_shift_;
  }

  bool access(std::uint64_t address) {
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
    *victim = {tag, stamp_, true};
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };
  int sets_;
  int ways_;
  int line_shift_ = 0;
  int sets_shift_ = 0;
  std::uint64_t stamp_ = 0;
  std::vector<Way> ways_storage_;
};

double reference_miss_rate(StampLruCache& cache, const StreamProfile& profile,
                           int accesses) {
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

double reference_mispredict_rate(BranchPredictorModel& predictor,
                                 const BranchStreamProfile& profile,
                                 int branches) {
  predictor.reset();
  util::Rng rng(util::hash_combine(profile.seed, 0xb4a2c3d1ULL));
  const int num_pcs = profile.static_branches;
  std::vector<double> bias(static_cast<std::size_t>(num_pcs));
  for (double& b : bias) {
    b = rng.next_unit() < profile.entropy
            ? 0.35 + 0.3 * rng.next_unit()
            : (rng.next_unit() < 0.5 ? 0.04 : 0.96);
  }
  int mispredicts = 0;
  for (int i = 0; i < branches; ++i) {
    const auto b = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(num_pcs)));
    const bool taken = rng.next_unit() < bias[b];
    const std::uint64_t pc = 0x4000 + 4 * static_cast<std::uint64_t>(b) * 7;
    if (!predictor.predict_and_update(pc, taken)) ++mispredicts;
  }
  return static_cast<double>(mispredicts) / branches;
}

struct CacheCase {
  int sets = 1;
  int ways = 1;
  int line_bytes = 64;
  StreamProfile profile;
  int accesses = 1;
};

std::string describe_cache_case(const CacheCase& c) {
  std::ostringstream out;
  out.precision(17);
  out << c.sets << " sets x " << c.ways << " ways x " << c.line_bytes
      << " B, footprint " << c.profile.footprint_kb << " KiB, stride "
      << c.profile.stride_bytes << " B @ " << c.profile.stride_frac
      << ", seed " << c.profile.seed << ", " << c.accesses << " accesses";
  return out.str();
}

TEST(CacheEquivalence, RecencyOrderedLruMatchesStampLru) {
  const auto result = testcore::run_property<CacheCase>(
      {.name = "sim.cache_vs_stamp_lru", .cases = 4000},
      [](testcore::Pcg32& rng) {
        CacheCase c;
        c.sets = 1 << rng.next_int(0, 7);         // 1..128
        c.ways = rng.next_int(1, 40);
        c.line_bytes = 1 << rng.next_int(3, 12);  // 8..4096
        c.profile.stride_bytes = rng.next_int(1, 512);
        const double line_kb = c.line_bytes / 1024.0;
        const double stride_kb = c.profile.stride_bytes / 1024.0;
        // Footprints below a line, below the stride, or larger.
        const double limits_kb[] = {line_kb, stride_kb, 4.0, 1024.0};
        c.profile.footprint_kb =
            rng.next_range(0.0, limits_kb[rng.index(std::size(limits_kb))]);
        c.profile.stride_frac = rng.next_unit();
        c.profile.seed = rng.next_u64();
        c.accesses = rng.next_int(1, 3000);
        return c;
      },
      [](const CacheCase& c) -> std::optional<std::string> {
        SetAssocCache cache(c.sets, c.ways, c.line_bytes);
        StampLruCache reference(c.sets, c.ways, c.line_bytes);
        const double got = measure_miss_rate(cache, c.profile, c.accesses);
        const double want =
            reference_miss_rate(reference, c.profile, c.accesses);
        if (got == want) return std::nullopt;
        std::ostringstream msg;
        msg.precision(17);
        msg << "miss rate " << got << ", stamp LRU " << want;
        return msg.str();
      },
      describe_cache_case);
  ASSERT_TRUE(result.passed) << result.report;
}

struct BranchCase {
  int entries = 1;
  BranchStreamProfile profile;
  int branches = 1;
};

TEST(CacheEquivalence, ExactModuloBranchStreamMatchesModuloStream) {
  const auto result = testcore::run_property<BranchCase>(
      {.name = "sim.branch_vs_modulo_stream", .cases = 2000},
      [](testcore::Pcg32& rng) {
        BranchCase c;
        c.entries = 1 << rng.next_int(0, 13);  // 1..8192
        c.profile.entropy = rng.next_unit();
        c.profile.static_branches = rng.next_bool(0.2)
                                        ? rng.next_int(1, 8)
                                        : rng.next_int(1, 5000);
        c.profile.seed = rng.next_u64();
        c.branches = rng.next_int(1, 3000);
        return c;
      },
      [](const BranchCase& c) -> std::optional<std::string> {
        BranchPredictorModel predictor(c.entries);
        const double got =
            measure_mispredict_rate(predictor, c.profile, c.branches);
        const double want =
            reference_mispredict_rate(predictor, c.profile, c.branches);
        if (got == want) return std::nullopt;
        std::ostringstream msg;
        msg.precision(17);
        msg << "mispredict rate " << got << ", % stream " << want;
        return msg.str();
      },
      [](const BranchCase& c) {
        std::ostringstream out;
        out << c.entries << " entries, " << c.profile.static_branches
            << " static branches, entropy " << c.profile.entropy << ", seed "
            << c.profile.seed << ", " << c.branches << " branches";
        return out.str();
      });
  ASSERT_TRUE(result.passed) << result.report;
}

TEST(CacheEquivalence, ExactModuloMatchesHardwareModulo) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t edges[] = {0, 1, 2, 3, kMax, kMax - 1, kMax / 2,
                                 kMax / 2 + 1, std::uint64_t{1} << 63};
  for (const std::uint64_t d : edges) {
    if (d == 0) continue;
    const ExactModulo mod(d);
    for (const std::uint64_t a : edges) {
      for (const std::uint64_t x : {a, a - 1, a + 1, d, d - 1, d + 1,
                                    2 * d, 2 * d - 1, kMax - d}) {
        ASSERT_EQ(mod(x), x % d) << x << " % " << d;
      }
    }
  }
  testcore::Pcg32 rng(20261019);
  for (int i = 0; i < 20000; ++i) {
    // Divisors from 1 to 2^64 - 1, spread over every bit length.
    const std::uint64_t d =
        std::max<std::uint64_t>(1, rng.next_u64() >> rng.next_int(0, 63));
    const ExactModulo mod(d);
    for (int k = 0; k < 8; ++k) {
      const std::uint64_t x = rng.next_u64() >> rng.next_int(0, 63);
      ASSERT_EQ(mod(x), x % d) << x << " % " << d;
    }
  }
  EXPECT_THROW(ExactModulo(0), util::InvalidArgument);
}

}  // namespace
}  // namespace autopower::sim
