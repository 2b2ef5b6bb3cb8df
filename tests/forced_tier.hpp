// Test helpers for running one check at every SIMD dispatch tier this CPU
// can execute (docs/simd.md): the tier list, and a scope guard that binds a
// tier and restores the startup binding on exit.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "la/simd/dispatch.hpp"

namespace deepphi::test {

/// Every tier tier_available() accepts, narrowest first (scalar always).
inline std::vector<la::simd::Tier> available_tiers() {
  std::vector<la::simd::Tier> tiers;
  for (int t = 0; t < la::simd::kNumTiers; ++t) {
    const auto tier = static_cast<la::simd::Tier>(t);
    if (la::simd::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Forces a tier for one scope; restores the startup binding on exit.
struct ForcedTier {
  explicit ForcedTier(la::simd::Tier t) {
    EXPECT_TRUE(la::simd::force_tier(t));
  }
  ~ForcedTier() { la::simd::reset_tier(); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

}  // namespace deepphi::test
