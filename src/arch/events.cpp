#include "arch/events.hpp"

#include <string>

namespace autopower::arch {

namespace {

constexpr std::array<std::string_view, kNumEvents> kEventNames = {
    "Cycles",
    "Instructions",
    "Branches",
    "Loads",
    "Stores",
    "IntAluInstrs",
    "MulDivInstrs",
    "FpInstrs",
    "FetchPackets",
    "FetchBubbles",
    "FetchBufferOcc",
    "BpLookups",
    "BpMispredicts",
    "BtbHits",
    "ICacheAccesses",
    "ICacheMisses",
    "ItlbAccesses",
    "ItlbMisses",
    "DecodedUops",
    "RenameUops",
    "RenameStalls",
    "DispatchedUops",
    "CommittedUops",
    "RobOccupancy",
    "PipelineFlushes",
    "IntIssued",
    "MemIssued",
    "FpIssued",
    "IntIqOcc",
    "MemIqOcc",
    "FpIqOcc",
    "RegfileReads",
    "RegfileWrites",
    "AluOps",
    "MulOps",
    "DivOps",
    "FpuOps",
    "LoadsExecuted",
    "StoresExecuted",
    "StoreForwards",
    "LdqOcc",
    "StqOcc",
    "DcacheAccesses",
    "DcacheMisses",
    "DcacheWritebacks",
    "MshrAllocs",
    "MshrFullStalls",
    "DtlbAccesses",
    "DtlbMisses",
};

using E = EventKind;

constexpr std::array<E, 5> kBpEvents = {E::kBpLookups, E::kBpMispredicts,
                                        E::kBtbHits, E::kFetchPackets,
                                        E::kPipelineFlushes};
constexpr std::array<E, 4> kICacheEvents = {E::kICacheAccesses,
                                            E::kICacheMisses,
                                            E::kFetchPackets, E::kItlbMisses};
constexpr std::array<E, 2> kITlbEvents = {E::kItlbAccesses, E::kItlbMisses};
constexpr std::array<E, 4> kRnuEvents = {E::kRenameUops, E::kRenameStalls,
                                         E::kDecodedUops, E::kDispatchedUops};
constexpr std::array<E, 4> kRobEvents = {E::kDispatchedUops, E::kCommittedUops,
                                         E::kRobOccupancy,
                                         E::kPipelineFlushes};
constexpr std::array<E, 5> kRegfileEvents = {E::kRegfileReads,
                                             E::kRegfileWrites, E::kIntIssued,
                                             E::kFpIssued, E::kMemIssued};
constexpr std::array<E, 5> kDCacheEvents = {E::kDcacheAccesses,
                                            E::kDcacheMisses,
                                            E::kDcacheWritebacks,
                                            E::kMshrAllocs, E::kDtlbMisses};
constexpr std::array<E, 4> kMshrEvents = {E::kMshrAllocs, E::kMshrFullStalls,
                                          E::kDcacheMisses,
                                          E::kDcacheWritebacks};
constexpr std::array<E, 2> kDTlbEvents = {E::kDtlbAccesses, E::kDtlbMisses};
constexpr std::array<E, 3> kFpIsuEvents = {E::kFpIssued, E::kFpIqOcc,
                                           E::kDispatchedUops};
constexpr std::array<E, 3> kIntIsuEvents = {E::kIntIssued, E::kIntIqOcc,
                                            E::kDispatchedUops};
constexpr std::array<E, 3> kMemIsuEvents = {E::kMemIssued, E::kMemIqOcc,
                                            E::kDispatchedUops};
constexpr std::array<E, 5> kFuPoolEvents = {E::kAluOps, E::kMulOps,
                                            E::kDivOps, E::kFpuOps,
                                            E::kIntIssued};
constexpr std::array<E, 4> kOtherEvents = {E::kCommittedUops, E::kInstructions,
                                           E::kDispatchedUops,
                                           E::kPipelineFlushes};
constexpr std::array<E, 6> kLsuEvents = {E::kLoadsExecuted, E::kStoresExecuted,
                                         E::kStoreForwards, E::kLdqOcc,
                                         E::kStqOcc, E::kDcacheMisses};
constexpr std::array<E, 5> kIfuEvents = {E::kFetchPackets, E::kFetchBubbles,
                                         E::kFetchBufferOcc,
                                         E::kICacheAccesses, E::kDecodedUops};

}  // namespace

std::string_view event_name(EventKind e) noexcept {
  return kEventNames[static_cast<std::size_t>(e)];
}

EventVector& EventVector::operator+=(const EventVector& other) noexcept {
  for (std::size_t i = 0; i < kNumEvents; ++i) {
    values_[i] += other.values_[i];
  }
  return *this;
}

std::span<const EventKind> component_events(ComponentKind c) noexcept {
  switch (c) {
    case ComponentKind::kBpTage:
    case ComponentKind::kBpBtb:
    case ComponentKind::kBpOthers:
      return kBpEvents;
    case ComponentKind::kICacheTagArray:
    case ComponentKind::kICacheDataArray:
    case ComponentKind::kICacheOthers:
      return kICacheEvents;
    case ComponentKind::kRnu:
      return kRnuEvents;
    case ComponentKind::kRob:
      return kRobEvents;
    case ComponentKind::kRegfile:
      return kRegfileEvents;
    case ComponentKind::kDCacheTagArray:
    case ComponentKind::kDCacheDataArray:
    case ComponentKind::kDCacheOthers:
      return kDCacheEvents;
    case ComponentKind::kFpIsu:
      return kFpIsuEvents;
    case ComponentKind::kIntIsu:
      return kIntIsuEvents;
    case ComponentKind::kMemIsu:
      return kMemIsuEvents;
    case ComponentKind::kITlb:
      return kITlbEvents;
    case ComponentKind::kDTlb:
      return kDTlbEvents;
    case ComponentKind::kFuPool:
      return kFuPoolEvents;
    case ComponentKind::kOtherLogic:
      return kOtherEvents;
    case ComponentKind::kDCacheMshr:
      return kMshrEvents;
    case ComponentKind::kLsu:
      return kLsuEvents;
    case ComponentKind::kIfu:
      return kIfuEvents;
  }
  return {};
}

std::vector<double> component_event_features(ComponentKind c,
                                             const EventVector& events) {
  const auto kinds = component_events(c);
  std::vector<double> out;
  out.reserve(kinds.size());
  for (EventKind e : kinds) out.push_back(events.rate(e));
  return out;
}

std::vector<std::string> component_event_feature_names(ComponentKind c) {
  const auto kinds = component_events(c);
  std::vector<std::string> out;
  out.reserve(kinds.size());
  for (EventKind e : kinds) out.push_back("E." + std::string(event_name(e)));
  return out;
}

}  // namespace autopower::arch
