// The named presets must match the paper's figure legends exactly — a
// mislabeled preset would silently invalidate every benchmark.
#include "core/config.hpp"

#include <gtest/gtest.h>

#include "core/endpoint.hpp"
#include "core/library.hpp"

namespace pinsim::core {
namespace {

TEST(Config, RegularPinningIsPerCommunicationWithoutCache) {
  const auto cfg = regular_pinning_config();
  EXPECT_EQ(cfg.pinning.mode, PinMode::kPerCommunication);
  EXPECT_FALSE(cfg.pinning.overlapped);
  EXPECT_FALSE(cfg.cache.enabled);
}

TEST(Config, OverlappedPinningIsOnDemandWithoutCache) {
  const auto cfg = overlapped_pinning_config();
  EXPECT_EQ(cfg.pinning.mode, PinMode::kOnDemand);
  EXPECT_TRUE(cfg.pinning.overlapped);
  EXPECT_FALSE(cfg.cache.enabled);
}

TEST(Config, PinningCacheIsOnDemandWithCacheNoOverlap) {
  const auto cfg = pinning_cache_config();
  EXPECT_EQ(cfg.pinning.mode, PinMode::kOnDemand);
  EXPECT_FALSE(cfg.pinning.overlapped);
  EXPECT_TRUE(cfg.cache.enabled);
}

TEST(Config, OverlappedCacheEnablesBoth) {
  const auto cfg = overlapped_cache_config();
  EXPECT_EQ(cfg.pinning.mode, PinMode::kOnDemand);
  EXPECT_TRUE(cfg.pinning.overlapped);
  EXPECT_TRUE(cfg.cache.enabled);
}

TEST(Config, PermanentPinsAtDeclaration) {
  const auto cfg = permanent_pinning_config();
  EXPECT_EQ(cfg.pinning.mode, PinMode::kPermanent);
  EXPECT_TRUE(cfg.cache.enabled);
}

TEST(Config, QsnetIdealNeverPins) {
  const auto cfg = qsnet_ideal_config();
  EXPECT_EQ(cfg.pinning.mode, PinMode::kNone);
}

TEST(Config, ProtocolDefaultsMatchTheMxoeSpecAndPaper) {
  const ProtocolConfig p;
  EXPECT_EQ(p.eager_threshold, 32u * 1024);        // MXoE spec (§2.2)
  EXPECT_EQ(Endpoint::kPullBlock, 32u * 1024);     // MXoE pull blocks
  EXPECT_EQ(p.retransmit_timeout, sim::kSecond);   // paper footnote 4
  EXPECT_TRUE(p.distribute_interrupts);            // "one process per core"
  EXPECT_GT(Endpoint::kPullWindow, 0u);
  EXPECT_GT(Library::kSyscallCost, 0u);
  EXPECT_GT(p.frame_payload, 0u);
  EXPECT_LE(p.frame_payload + 64, 9000u);  // fits the jumbo MTU with headers
}

TEST(Config, PinningDefaultsAreTheDecoupledModel) {
  const PinningConfig p;
  EXPECT_EQ(p.mode, PinMode::kOnDemand);
  EXPECT_GT(p.pin_chunk_pages, 0u);
  EXPECT_EQ(p.sync_prepin_pages, 0u);  // §4.3 mitigation off by default
}

}  // namespace
}  // namespace pinsim::core
