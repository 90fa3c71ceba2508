// Event-parameter schema — what the performance simulator reports.
//
// "Event parameters E" in the paper are the per-workload activity counters
// collected from gem5.  Counters are raw counts over the simulated window;
// occupancy events are stored as entry-cycle integrals so that windows can
// be summed.  Models consume *rates* (value / cycles): a per-cycle event
// rate for counters and an average occupancy for occupancy events.  This
// makes the same models usable for whole-workload aggregates and for the
// 50-cycle windows of the power-trace experiment.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "arch/component.hpp"

namespace autopower::arch {

/// Every activity counter the performance simulator emits.
enum class EventKind : std::size_t {
  kCycles = 0,
  // Committed-instruction class counts.
  kInstructions,
  kBranches,
  kLoads,
  kStores,
  kIntAluInstrs,
  kMulDivInstrs,
  kFpInstrs,
  // Front end.
  kFetchPackets,
  kFetchBubbles,
  kFetchBufferOcc,  // occupancy integral (entry-cycles)
  kBpLookups,
  kBpMispredicts,
  kBtbHits,
  kICacheAccesses,
  kICacheMisses,
  kItlbAccesses,
  kItlbMisses,
  // Decode / rename / ROB.
  kDecodedUops,
  kRenameUops,
  kRenameStalls,
  kDispatchedUops,
  kCommittedUops,
  kRobOccupancy,  // occupancy integral (entry-cycles)
  kPipelineFlushes,
  // Issue / execute.
  kIntIssued,
  kMemIssued,
  kFpIssued,
  kIntIqOcc,
  kMemIqOcc,
  kFpIqOcc,
  kRegfileReads,
  kRegfileWrites,
  kAluOps,
  kMulOps,
  kDivOps,
  kFpuOps,
  // Load/store unit and D-side memory.
  kLoadsExecuted,
  kStoresExecuted,
  kStoreForwards,
  kLdqOcc,
  kStqOcc,
  kDcacheAccesses,
  kDcacheMisses,
  kDcacheWritebacks,
  kMshrAllocs,
  kMshrFullStalls,
  kDtlbAccesses,
  kDtlbMisses,
};

inline constexpr std::size_t kNumEvents = 49;

/// Counter name (stable identifier used in feature names and reports).
[[nodiscard]] std::string_view event_name(EventKind e) noexcept;

/// A complete set of counters for one simulated window or whole workload.
class EventVector {
 public:
  EventVector() { values_.fill(0.0); }

  [[nodiscard]] double& operator[](EventKind e) noexcept {
    return values_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] double operator[](EventKind e) const noexcept {
    return values_[static_cast<std::size_t>(e)];
  }

  [[nodiscard]] double cycles() const noexcept {
    return values_[static_cast<std::size_t>(EventKind::kCycles)];
  }

  /// Value divided by cycles: a per-cycle rate for counters, an average
  /// occupancy for occupancy integrals.  Returns 0 when cycles == 0.
  /// Inline: prediction gathers it per (window, tested event).
  [[nodiscard]] double rate(EventKind e) const noexcept {
    const double c = cycles();
    if (c <= 0.0) return 0.0;
    if (e == EventKind::kCycles) return 1.0;
    return (*this)[e] / c;
  }

  /// Element-wise accumulation (used to aggregate windows into workloads).
  EventVector& operator+=(const EventVector& other) noexcept;

 private:
  std::array<double, kNumEvents> values_;
};

/// The event counters relevant to one component (its event parameters).
[[nodiscard]] std::span<const EventKind> component_events(
    ComponentKind c) noexcept;

/// Feature vector of per-cycle event rates for a component.
[[nodiscard]] std::vector<double> component_event_features(
    ComponentKind c, const EventVector& events);

/// Names matching component_event_features, prefixed "E.".
[[nodiscard]] std::vector<std::string> component_event_feature_names(
    ComponentKind c);

}  // namespace autopower::arch
