// Memo bank for the performance simulator's structural sub-simulations.
//
// The simulator's expensive work is five independent structural
// measurements per (configuration, phase): I-cache, D-cache, I-TLB, D-TLB
// and branch-predictor streams of thousands of synthetic references each.
// Every one of them reads only a small subset of the hardware parameters,
// so on a design-space sweep that varies ROB/width/queue parameters the
// measurements are identical across configurations.  Each sub-simulation's
// scalar result (a miss/mispredict rate) lives in its own *lane*, keyed on
// a 64-bit hash of exactly the inputs that sub-simulation reads — the
// decoupling that turns an O(configs) sweep cost into O(1) per distinct
// structural sub-key.
//
// It is the only memo under sim::PerfSimulator (DESIGN.md "One shared
// memo"): lanes of independently-locked shards, each one unordered_map,
// with FIRST-INSERT-WINS ownership.  Optionally bounded (`max_entries`,
// what `sweep --memory-budget` sets): a full shard is cleared before the
// insert that would overflow it, so a sweep's cache footprint respects
// the budget.
//
// Thread-safety semantics:
//   * Lookups take a shared (reader) lock and inserts a unique (writer)
//     lock, so concurrent sweep workers hitting warm entries never
//     serialise.
//   * On a miss the value is computed OUTSIDE any lock.  Two threads may
//     transiently duplicate the same deterministic computation; the first
//     insert wins and both observe one published value.  Because every
//     sub-simulation is a pure function of its key's inputs, the race is
//     benign and results stay bit-identical to an unshared run.  For the
//     same reason a flush only ever costs recomputation: a bounded cache
//     is bit-identical to an unbounded one (property-tested).
//   * stats() counters are relaxed atomics — approximate while workers
//     are still running, exact once they have quiesced.  A miss is
//     counted only by the WINNING insert, so after quiescing
//     `misses == entries created` (== size() when nothing was flushed or
//     cleared) and `hits + misses == lookups`; a thread that loses the
//     cold-key race counts a hit.
//
// The cache stores plain doubles and 64-bit keys only, so it lives in
// src/util/ below the simulator; sim/perfsim.cpp owns the key schema
// (which parameters feed which lane — documented in DESIGN.md).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>

#include "util/fault.hpp"

namespace autopower::util {

class MetricsRegistry;

class StructuralSimCache {
 public:
  /// One lane per structural sub-simulation of the performance simulator.
  enum class SubSim : std::size_t {
    kICache = 0,
    kDCache,
    kItlb,
    kDtlb,
    kBranch,
  };
  static constexpr std::size_t kNumSubSims = 5;

  /// Rough resident cost of one entry (key + value + hash node); what
  /// `sweep --memory-budget` divides by to size the cache.
  static constexpr std::size_t kApproxEntryBytes = 64;

  /// `shards_per_sub` is clamped to at least 1.  `max_entries` == 0 keeps
  /// the cache unbounded; a positive value gives every shard of every
  /// lane an equal slice of it (at least one entry), and a full shard is
  /// cleared before its next insert.  capacity() reports the resulting
  /// total bound.
  explicit StructuralSimCache(std::size_t shards_per_sub = 8,
                              std::size_t max_entries = 0);

  StructuralSimCache(const StructuralSimCache&) = delete;
  StructuralSimCache& operator=(const StructuralSimCache&) = delete;

  /// Returns the memoised value for `key` in lane `sub`, invoking
  /// `compute` (outside all locks) on a miss.  `compute` must be a pure
  /// function of the inputs hashed into `key`.
  template <typename Fn>
  double get_or_compute(SubSim sub, std::uint64_t key, Fn&& compute) {
    Lane& lane = lanes_[static_cast<std::size_t>(sub)];
    Shard& shard = lane.shards[key % lane.shards.size()];
    {
      std::shared_lock lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        lane.hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    // Insert-after-successful-compute: a throwing filler (or a failing
    // insert allocation — emplace gives the strong guarantee) propagates
    // without inserting anything, so no lane can hold a partial entry.
    AUTOPOWER_FAULT_POINT("util.structural_cache.fill");
    const double value = compute();
    AUTOPOWER_FAULT_POINT("util.structural_cache.insert");
    std::unique_lock lock(shard.mu);
    // Only the winning insert counts the miss; a lost race adopts the
    // published value (bit-identical anyway — the computation is
    // deterministic in the key's inputs) and counts as a hit, keeping
    // `misses == entries created` exact after the workers quiesce.
    if (shard.map.contains(key)) {
      lane.hits.fetch_add(1, std::memory_order_relaxed);
      return value;
    }
    if (per_shard_ != 0 && shard.map.size() >= per_shard_) {
      lane.evictions.fetch_add(shard.map.size(), std::memory_order_relaxed);
      shard.map.clear();
    }
    shard.map.emplace(key, value);
    lane.misses.fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< entries dropped by full-shard flushes
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// Aggregate counters across all lanes: `hits + misses == lookups`.
  [[nodiscard]] Stats stats() const noexcept;
  /// Counters of one lane.
  [[nodiscard]] Stats stats(SubSim sub) const noexcept;

  /// Publishes a per-lane hit/miss snapshot plus the aggregates into
  /// `registry` as gauges: "sim.structural.l2.<lane>.hits" / ".misses",
  /// "sim.structural.l2.entries" and "sim.structural.l2.evictions".  Last
  /// writer wins; the serve and sweep layers call this after each run.
  void export_metrics(MetricsRegistry& registry) const;

  /// Number of memoised entries across all lanes and shards.
  [[nodiscard]] std::size_t size() const;

  /// Total entry bound, per-shard slice × shards × lanes (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return per_shard_ * shards_per_sub() * kNumSubSims;
  }

  /// Drops every entry and zeroes the counters.
  void clear();

  [[nodiscard]] std::size_t shards_per_sub() const noexcept {
    return lanes_[0].shards.size();
  }

  [[nodiscard]] static std::string_view sub_sim_name(SubSim sub) noexcept;

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::uint64_t, double> map;
  };

  struct Lane {
    std::deque<Shard> shards;  // deque: Shard holds a mutex, must not move
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  std::array<Lane, kNumSubSims> lanes_;
  std::size_t per_shard_ = 0;  ///< entry bound per shard (0 = unbounded)
};

}  // namespace autopower::util
