#include "core/placement_policy.h"

#include <gtest/gtest.h>

#include <memory>

#include "../test_support.h"
#include "storage/memory_engine.h"

namespace monarch::core {
namespace {

std::unique_ptr<StorageHierarchy> MakeHierarchy(
    std::vector<std::uint64_t> quotas) {
  std::vector<StorageDriverPtr> drivers;
  for (std::size_t i = 0; i < quotas.size(); ++i) {
    drivers.push_back(std::make_unique<StorageDriver>(
        "tier" + std::to_string(i),
        std::make_shared<storage::MemoryEngine>(), quotas[i],
        /*read_only=*/false));
  }
  drivers.push_back(std::make_unique<StorageDriver>(
      "pfs", std::make_shared<storage::MemoryEngine>(), 0,
      /*read_only=*/true));
  auto hierarchy = StorageHierarchy::Create(std::move(drivers));
  EXPECT_TRUE(hierarchy.ok());
  return std::move(hierarchy).value();
}

TEST(FirstFitPolicyTest, FillsLevelZeroFirst) {
  auto hierarchy = MakeHierarchy({100, 100});
  FirstFitPolicy policy;
  // Level 0 takes files until full.
  EXPECT_EQ(0, policy.PickLevel(*hierarchy, 60).value());
  EXPECT_EQ(0, policy.PickLevel(*hierarchy, 40).value());
  // Level 0 is exactly full: the next file spills to level 1.
  EXPECT_EQ(1, policy.PickLevel(*hierarchy, 10).value());
  EXPECT_EQ(60u, hierarchy->Level(1).occupancy_bytes() + 50);
}

TEST(FirstFitPolicyTest, ReservesQuotaAtomically) {
  auto hierarchy = MakeHierarchy({100});
  FirstFitPolicy policy;
  ASSERT_TRUE(policy.PickLevel(*hierarchy, 70).has_value());
  EXPECT_EQ(70u, hierarchy->Level(0).occupancy_bytes());
}

TEST(FirstFitPolicyTest, NulloptWhenNothingFits) {
  auto hierarchy = MakeHierarchy({50, 30});
  FirstFitPolicy policy;
  EXPECT_FALSE(policy.PickLevel(*hierarchy, 60).has_value());
  EXPECT_EQ(0u, hierarchy->Level(0).occupancy_bytes())
      << "a failed pick must not leave reservations behind";
  EXPECT_EQ(0u, hierarchy->Level(1).occupancy_bytes());
}

TEST(FirstFitPolicyTest, NeverPicksThePfsLevel) {
  auto hierarchy = MakeHierarchy({10});
  FirstFitPolicy policy;
  // File larger than every writable tier: must return nullopt rather than
  // "placing" on the unlimited PFS level.
  EXPECT_FALSE(policy.PickLevel(*hierarchy, 11).has_value());
}

TEST(FirstFitPolicyTest, SkipsFullUpperTier) {
  auto hierarchy = MakeHierarchy({100, 200});
  FirstFitPolicy policy;
  ASSERT_TRUE(hierarchy->Level(0).Reserve(95));
  EXPECT_EQ(1, policy.PickLevel(*hierarchy, 50).value());
  // Small files can still squeeze into level 0's remainder.
  EXPECT_EQ(0, policy.PickLevel(*hierarchy, 5).value());
}

TEST(RoundRobinPolicyTest, SpreadsAcrossWritableTiers) {
  auto hierarchy = MakeHierarchy({1000, 1000});
  RoundRobinPolicy policy;
  int level0 = 0;
  int level1 = 0;
  for (int i = 0; i < 10; ++i) {
    const auto level = policy.PickLevel(*hierarchy, 10);
    ASSERT_TRUE(level.has_value());
    (level.value() == 0 ? level0 : level1)++;
  }
  EXPECT_EQ(5, level0);
  EXPECT_EQ(5, level1);
}

TEST(RoundRobinPolicyTest, FallsThroughWhenPreferredFull) {
  auto hierarchy = MakeHierarchy({15, 1000});
  RoundRobinPolicy policy;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(policy.PickLevel(*hierarchy, 10).has_value());
  }
  // Level 0 holds at most one 10-byte file; everything else spilled.
  EXPECT_LE(hierarchy->Level(0).occupancy_bytes(), 15u);
  EXPECT_GE(hierarchy->Level(1).occupancy_bytes(), 70u);
}

TEST(PolicyFactoryTest, NamesAreStable) {
  EXPECT_EQ("first-fit", MakeFirstFitPolicy()->Name());
  EXPECT_EQ("round-robin", MakeRoundRobinPolicy()->Name());
  EXPECT_FALSE(MakeFirstFitPolicy()->EvictsUnderPressure());

  // The by-name factory behind `[placement] policy`.
  auto clairvoyant = MakePlacementPolicyByName("clairvoyant");
  ASSERT_OK(clairvoyant);
  EXPECT_EQ("clairvoyant", clairvoyant.value()->Name());
  EXPECT_TRUE(clairvoyant.value()->EvictsUnderPressure());
}

}  // namespace
}  // namespace monarch::core
