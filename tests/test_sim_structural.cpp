// Tests for the decoupled structural memoisation of the performance
// simulator: StructuralSimCache semantics, bit-identity of memoized /
// shared-memo / fresh-simulator runs, one simulator shared across
// threads, and the cross-configuration reuse the decomposition exists
// for (sweeps over window parameters must not re-run any cache or branch
// sub-simulation).

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/perfsim.hpp"
#include "testcore/generators.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/structural_cache.hpp"

namespace autopower::sim {
namespace {

using arch::HwParam;
using util::StructuralSimCache;
using SubSim = StructuralSimCache::SubSim;

const workload::WorkloadProfile& wl(const char* name) {
  return workload::workload_by_name(name);
}

void expect_identical(const arch::EventVector& a, const arch::EventVector& b,
                      const char* what) {
  for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
    const auto k = static_cast<arch::EventKind>(i);
    ASSERT_EQ(a[k], b[k]) << what << ": " << arch::event_name(k);
  }
}

void expect_identical(const std::vector<arch::EventVector>& a,
                      const std::vector<arch::EventVector>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t w = 0; w < a.size(); ++w) {
    expect_identical(a[w], b[w], what);
  }
}

/// A random configuration whose every parameter value is drawn from that
/// parameter's pool of Table II values — so structural constraints (e.g.
/// power-of-two cache sets) hold by construction.
arch::HardwareConfig random_config(util::Rng& rng, int id) {
  const auto& space = arch::boom_design_space();
  std::array<int, arch::kNumHwParams> values{};
  for (arch::HwParam p : arch::all_hw_params()) {
    const auto& donor = space[rng.next_below(space.size())];
    values[static_cast<std::size_t>(p)] = donor.value(p);
  }
  return arch::HardwareConfig("rand" + std::to_string(id), values);
}

arch::HardwareConfig with_param(const arch::HardwareConfig& base,
                                HwParam param, int value) {
  std::array<int, arch::kNumHwParams> values{};
  for (arch::HwParam p : arch::all_hw_params()) {
    values[static_cast<std::size_t>(p)] = base.value(p);
  }
  values[static_cast<std::size_t>(param)] = value;
  return arch::HardwareConfig(base.name() + "'", values);
}

TEST(StructuralSimCache, ComputesOnceThenHits) {
  StructuralSimCache cache;
  int calls = 0;
  const auto compute = [&] {
    ++calls;
    return 0.25;
  };
  EXPECT_EQ(cache.get_or_compute(SubSim::kICache, 42, compute), 0.25);
  EXPECT_EQ(cache.get_or_compute(SubSim::kICache, 42, compute), 0.25);
  EXPECT_EQ(calls, 1);
  const auto stats = cache.stats(SubSim::kICache);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(StructuralSimCache, LanesAreIndependent) {
  StructuralSimCache cache;
  // The same key means different things in different lanes.
  EXPECT_EQ(cache.get_or_compute(SubSim::kICache, 7, [] { return 1.0; }), 1.0);
  EXPECT_EQ(cache.get_or_compute(SubSim::kBranch, 7, [] { return 2.0; }), 2.0);
  EXPECT_EQ(cache.get_or_compute(SubSim::kBranch, 7, [] { return 3.0; }), 2.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats(SubSim::kICache).misses, 1u);
  EXPECT_EQ(cache.stats(SubSim::kBranch).misses, 1u);
  EXPECT_EQ(cache.stats(SubSim::kBranch).hits, 1u);
}

TEST(StructuralSimCache, ClearResetsEntriesAndStats) {
  StructuralSimCache cache;
  for (std::uint64_t k = 0; k < 16; ++k) {
    cache.get_or_compute(SubSim::kDtlb, k, [k] { return double(k); });
  }
  EXPECT_EQ(cache.size(), 16u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // Entries really are gone: the value is recomputed.
  EXPECT_EQ(cache.get_or_compute(SubSim::kDtlb, 3, [] { return -1.0; }), -1.0);
}

// Property: for randomized configurations, a simulator that shares a
// pre-warmed structural cache produces results bit-identical to a fresh
// un-memoized simulator — for both entry points.
TEST(StructuralMemoProperty, SharedWarmedMatchesFreshSimulator) {
  util::Rng rng(0xC0FFEE);
  auto shared = std::make_shared<StructuralSimCache>();
  for (int i = 0; i < 12; ++i) {
    const auto cfg = random_config(rng, i);
    const auto& w = wl(i % 2 == 0 ? "qsort" : "towers");

    PerfSimulator fresh;  // private cache, nothing memoised
    PerfSimulator warmer(SimOptions{}, shared);
    (void)warmer.simulate(cfg, w);  // warm the shared cache
    PerfSimulator warmed(SimOptions{}, shared);

    expect_identical(fresh.simulate(cfg, w), warmed.simulate(cfg, w),
                     cfg.name().c_str());
    expect_identical(fresh.simulate_trace(cfg, w),
                     warmed.simulate_trace(cfg, w), cfg.name().c_str());
    // Re-running on the same instance (all structural hits) is stable too.
    expect_identical(warmed.simulate(cfg, w), fresh.simulate(cfg, w),
                     cfg.name().c_str());
  }
  // The warmed runs actually exercised the shared cache.
  EXPECT_GT(shared->stats().hits, 0u);
}

// One simulator serves every thread: 4 threads run simulate and
// simulate_trace on the same PerfSimulator (and so the same structural
// cache) and must reproduce a fresh serial simulator exactly.
TEST(StructuralMemoProperty, OneSimulatorSharedAcrossThreads) {
  testcore::Pcg32 rng(0x5EED5);
  const sim::SimOptions options = testcore::small_sim_options(rng);
  std::vector<arch::HardwareConfig> configs;
  std::vector<workload::WorkloadProfile> profiles;
  for (int i = 0; i < 8; ++i) {
    configs.push_back(testcore::random_hardware_config(rng));
    workload::WorkloadProfile profile = testcore::random_workload_profile(rng);
    profile.instructions = 20'000;  // short traces
    profiles.push_back(std::move(profile));
  }
  workload::WorkloadProfile gemm = wl("gemm");  // multi-phase
  gemm.instructions = 40'000;
  ASSERT_GT(gemm.phases.size(), 1u);
  configs.push_back(arch::boom_config("C8"));
  profiles.push_back(gemm);

  const std::size_t n = configs.size();
  std::vector<arch::EventVector> totals(n);
  std::vector<std::vector<arch::EventVector>> traces(n);
  const PerfSimulator shared(options);
  util::parallel_for(4 * n, 4, [&](std::size_t k) {
    // Every case runs on 4 indices; two of them write the results.
    const std::size_t i = k % n;
    const auto total = shared.simulate(configs[i], profiles[i]);
    const auto trace = shared.simulate_trace(configs[i], profiles[i]);
    if (k < n) totals[i] = total;
    if (k >= n && k < 2 * n) traces[i] = trace;
  });

  for (std::size_t i = 0; i < n; ++i) {
    const PerfSimulator serial(options);
    const auto what = configs[i].name() + "/" + profiles[i].name;
    expect_identical(serial.simulate(configs[i], profiles[i]), totals[i],
                     what.c_str());
    expect_identical(serial.simulate_trace(configs[i], profiles[i]),
                     traces[i], what.c_str());
  }
  EXPECT_GT(shared.structural_cache()->stats().hits, 0u);
}

// The reuse the decomposition exists for: changing only window parameters
// (ROB, fetch buffer, issue width, ...) must not re-run ANY structural
// sub-simulation.
TEST(StructuralMemoProperty, WindowParamsReuseAllStructuralWork) {
  auto shared = std::make_shared<StructuralSimCache>();
  const auto& base = arch::boom_config("C8");
  const auto& w = wl("dhrystone");
  {
    PerfSimulator sim(SimOptions{}, shared);
    (void)sim.simulate(base, w);
  }
  const auto warm = shared->stats();
  EXPECT_GT(warm.misses, 0u);

  for (const auto& [param, value] :
       std::vector<std::pair<HwParam, int>>{{HwParam::kRobEntry, 64},
                                            {HwParam::kFetchBufferEntry, 40},
                                            {HwParam::kLdqStqEntry, 36},
                                            {HwParam::kIntIssueWidth, 2},
                                            {HwParam::kMshrEntry, 8}}) {
    PerfSimulator sim(SimOptions{}, shared);
    (void)sim.simulate(with_param(base, param, value), w);
    EXPECT_EQ(shared->stats().misses, warm.misses)
        << "changing " << arch::hw_param_name(param)
        << " re-ran a structural sub-simulation";
  }
  EXPECT_GT(shared->stats().hits, warm.hits);
}

// Changing a structural parameter invalidates exactly the lanes that read
// it: CacheWay feeds the I- and D-cache simulations, while the TLBs and
// the branch predictor never look at it.
TEST(StructuralMemoProperty, CacheWayMissesOnlyCacheLanes) {
  auto shared = std::make_shared<StructuralSimCache>();
  const auto& base = arch::boom_config("C8");
  const auto& w = wl("dhrystone");
  {
    PerfSimulator sim(SimOptions{}, shared);
    (void)sim.simulate(base, w);
  }
  const auto icache0 = shared->stats(SubSim::kICache);
  const auto dcache0 = shared->stats(SubSim::kDCache);
  const auto itlb0 = shared->stats(SubSim::kItlb);
  const auto dtlb0 = shared->stats(SubSim::kDtlb);
  const auto branch0 = shared->stats(SubSim::kBranch);

  const int other_way = base.value(HwParam::kCacheWay) == 4 ? 8 : 4;
  PerfSimulator sim(SimOptions{}, shared);
  (void)sim.simulate(with_param(base, HwParam::kCacheWay, other_way), w);

  EXPECT_EQ(shared->stats(SubSim::kICache).misses, icache0.misses + 1);
  EXPECT_EQ(shared->stats(SubSim::kDCache).misses, dcache0.misses + 1);
  EXPECT_EQ(shared->stats(SubSim::kItlb).misses, itlb0.misses);
  EXPECT_EQ(shared->stats(SubSim::kDtlb).misses, dtlb0.misses);
  EXPECT_EQ(shared->stats(SubSim::kBranch).misses, branch0.misses);
  EXPECT_EQ(shared->stats(SubSim::kItlb).hits, itlb0.hits + 1);
  EXPECT_EQ(shared->stats(SubSim::kDtlb).hits, dtlb0.hits + 1);
  EXPECT_EQ(shared->stats(SubSim::kBranch).hits, branch0.hits + 1);
}

// --- Bounded cache (full-shard flush) ----------------------------------------

// The pure-function value a lane would memoise; any deterministic mix of
// (lane, key) works for the identity properties below.
double lane_value(SubSim sub, std::uint64_t key) {
  return static_cast<double>(util::hash_combine(
             static_cast<std::uint64_t>(sub) + 1, key)) *
         0x1.0p-64;
}

// Property: a bounded cache answers every lookup with exactly the value
// an unbounded cache answers — eviction only ever costs recomputation —
// while never holding more than its capacity.
TEST(StructuralCacheEviction, BoundedMatchesUnboundedOverRandomStreams) {
  util::Rng rng(0xB0DE);
  for (int round = 0; round < 8; ++round) {
    // 1 shard/lane, 40 entries total -> 8 entries per lane: small enough
    // that a 64-key working set flushes constantly.
    StructuralSimCache bounded(1, 40);
    StructuralSimCache unbounded(1, 0);
    ASSERT_EQ(bounded.capacity(), 40u);
    for (int op = 0; op < 4000; ++op) {
      const auto sub = static_cast<SubSim>(
          rng.next_below(StructuralSimCache::kNumSubSims));
      // Hot working set with an occasional cold key, so the stream has
      // both hits and full-shard flushes.
      const std::uint64_t key = rng.next_below(10) == 0
                                    ? rng.next_below(1u << 20)
                                    : rng.next_below(64);
      const double want = lane_value(sub, key);
      const auto compute = [&] { return lane_value(sub, key); };
      ASSERT_EQ(bounded.get_or_compute(sub, key, compute), want)
          << "round " << round << " op " << op;
      ASSERT_EQ(unbounded.get_or_compute(sub, key, compute), want);
      ASSERT_LE(bounded.size(), bounded.capacity());
    }
    EXPECT_GT(bounded.stats().evictions, 0u);
    EXPECT_EQ(unbounded.stats().evictions, 0u);
    // Eviction costs show up as extra misses (recomputes), never as
    // different answers.
    EXPECT_GE(bounded.stats().misses, unbounded.stats().misses);
  }
}

TEST(StructuralCacheEviction, FullShardFlushesBeforeEachInsert) {
  // One shard per lane, 5-entry budget -> 1 entry per shard.  Every
  // insert after the first finds its shard full and flushes it, but the
  // key just inserted keeps answering until the next insert.
  StructuralSimCache cache(1, 5);
  int computes = 0;
  for (std::uint64_t k = 0; k < 10; ++k) {
    const double v = cache.get_or_compute(SubSim::kBranch, k, [&] {
      ++computes;
      return double(k);
    });
    EXPECT_EQ(v, double(k));
    // The just-inserted key hits until the next insert displaces it.
    EXPECT_EQ(cache.get_or_compute(SubSim::kBranch, k,
                                   [] { return -1.0; }),
              double(k));
  }
  EXPECT_EQ(computes, 10);
  EXPECT_EQ(cache.stats(SubSim::kBranch).hits, 10u);
  EXPECT_EQ(cache.stats().evictions, 9u);
}

// capacity() is the bound the cache really keeps: with more shards than
// budget every shard still holds one entry, so (8, 16) holds up to 40.
TEST(StructuralCacheEviction, CapacityIsTheResidentBound) {
  StructuralSimCache cache(8, 16);
  EXPECT_EQ(cache.capacity(), 40u);
  for (std::size_t lane = 0; lane < StructuralSimCache::kNumSubSims; ++lane) {
    for (std::uint64_t key = 0; key < 64; ++key) {
      const auto sub = static_cast<SubSim>(lane);
      cache.get_or_compute(sub, key, [&] { return lane_value(sub, key); });
      ASSERT_LE(cache.size(), cache.capacity());
    }
  }
  EXPECT_EQ(cache.size(), cache.capacity());
}

TEST(StructuralCacheEviction, BoundedSharedCacheStaysBitIdentical) {
  // Simulators sharing a tiny bounded cache (flushing constantly) must
  // stay bit-identical to a fresh unshared simulator.
  auto tiny = std::make_shared<StructuralSimCache>(2, 16);
  util::Rng rng(0x11FA2);
  for (int i = 0; i < 6; ++i) {
    const auto cfg = random_config(rng, 100 + i);
    const auto& w = wl(i % 2 == 0 ? "dhrystone" : "median");
    PerfSimulator fresh;
    PerfSimulator shared_sim(SimOptions{}, tiny);
    expect_identical(fresh.simulate(cfg, w), shared_sim.simulate(cfg, w),
                     cfg.name().c_str());
  }
  EXPECT_LE(tiny->size(), tiny->capacity());
}

}  // namespace
}  // namespace autopower::sim
