#include "util/structural_cache.hpp"

#include <algorithm>
#include <string>

#include "util/metrics.hpp"

namespace autopower::util {

StructuralSimCache::StructuralSimCache(std::size_t shards_per_sub,
                                       std::size_t max_entries) {
  const std::size_t shards = shards_per_sub == 0 ? 1 : shards_per_sub;
  // Bounded mode splits the total budget evenly across every shard of
  // every lane; each shard keeps at least one entry so no key can become
  // uncacheable.
  per_shard_ =
      max_entries == 0
          ? 0
          : std::max<std::size_t>(1, max_entries / (kNumSubSims * shards));
  for (Lane& lane : lanes_) lane.shards.resize(shards);
}

StructuralSimCache::Stats StructuralSimCache::stats() const noexcept {
  Stats total;
  for (std::size_t i = 0; i < kNumSubSims; ++i) {
    const Stats lane = stats(static_cast<SubSim>(i));
    total.hits += lane.hits;
    total.misses += lane.misses;
    total.evictions += lane.evictions;
  }
  return total;
}

StructuralSimCache::Stats StructuralSimCache::stats(SubSim sub) const noexcept {
  const Lane& lane = lanes_[static_cast<std::size_t>(sub)];
  return {lane.hits.load(std::memory_order_relaxed),
          lane.misses.load(std::memory_order_relaxed),
          lane.evictions.load(std::memory_order_relaxed)};
}

std::size_t StructuralSimCache::size() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    for (const Shard& shard : lane.shards) {
      std::shared_lock lock(shard.mu);
      n += shard.map.size();
    }
  }
  return n;
}

void StructuralSimCache::clear() {
  for (Lane& lane : lanes_) {
    for (Shard& shard : lane.shards) {
      std::unique_lock lock(shard.mu);
      shard.map.clear();
    }
    lane.hits.store(0, std::memory_order_relaxed);
    lane.misses.store(0, std::memory_order_relaxed);
    lane.evictions.store(0, std::memory_order_relaxed);
  }
}

void StructuralSimCache::export_metrics(MetricsRegistry& registry) const {
  for (std::size_t i = 0; i < kNumSubSims; ++i) {
    const auto sub = static_cast<SubSim>(i);
    const Stats lane = stats(sub);
    const std::string prefix =
        "sim.structural.l2." + std::string(sub_sim_name(sub));
    registry.gauge(prefix + ".hits").set(static_cast<double>(lane.hits));
    registry.gauge(prefix + ".misses").set(static_cast<double>(lane.misses));
  }
  registry.gauge("sim.structural.l2.entries")
      .set(static_cast<double>(size()));
  registry.gauge("sim.structural.l2.evictions")
      .set(static_cast<double>(stats().evictions));
}

std::string_view StructuralSimCache::sub_sim_name(SubSim sub) noexcept {
  switch (sub) {
    case SubSim::kICache: return "icache";
    case SubSim::kDCache: return "dcache";
    case SubSim::kItlb: return "itlb";
    case SubSim::kDtlb: return "dtlb";
    case SubSim::kBranch: return "branch";
  }
  return "unknown";
}

}  // namespace autopower::util
