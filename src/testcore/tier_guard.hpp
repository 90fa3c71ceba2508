// Scope guard for tests that flip the dispatched SIMD tier.
#pragma once

#include "util/simd.hpp"

namespace autopower::testcore {

/// Restores the dispatched tier (and its gauge) on scope exit, so tier-
/// flipping tests cannot leak state into later tests.
class TierGuard {
 public:
  TierGuard() : saved_(util::simd::active_tier()) {}
  ~TierGuard() { util::simd::set_active_tier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  util::simd::Tier saved_;
};

}  // namespace autopower::testcore
