#include "qos/bandwidth_broker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "qos/tenant.h"
#include "util/clock.h"

namespace monarch::qos {
namespace {

TenantContext MakeTenant(int id, double weight,
                         IoClass io_class = IoClass::kTraining) {
  TenantContext tenant;
  tenant.tenant_id = id;
  tenant.name = "t" + std::to_string(id);
  tenant.io_class = io_class;
  tenant.weight = weight;
  return tenant;
}

const BandwidthBroker::TenantUsage* FindUsage(
    const std::vector<BandwidthBroker::TenantUsage>& usage, int id) {
  for (const auto& entry : usage) {
    if (entry.tenant_id == id) return &entry;
  }
  return nullptr;
}

TEST(QosBrokerTest, DisabledBrokerChargesAreFree) {
  BandwidthBroker broker({/*total_rate_bps=*/0.0});
  broker.RegisterTenant(MakeTenant(1, 4.0));
  EXPECT_FALSE(broker.enabled());
  EXPECT_EQ(kZeroDuration, broker.Reserve(1, 1u << 30));
}

TEST(QosBrokerTest, ActiveTenantsSplitTotalByWeight) {
  BandwidthBroker::Options options;
  options.total_rate_bps = 10000.0;
  options.work_conserving = true;
  BandwidthBroker broker(options);
  broker.RegisterTenant(MakeTenant(1, 3.0, IoClass::kInteractive));
  broker.RegisterTenant(MakeTenant(2, 1.0, IoClass::kScan));
  // Both charge -> both active -> 3:1 split of the pipe.
  (void)broker.Reserve(1, 1);
  (void)broker.Reserve(2, 1);
  const auto usage = broker.Usage();
  const auto* heavy = FindUsage(usage, 1);
  const auto* light = FindUsage(usage, 2);
  ASSERT_NE(nullptr, heavy);
  ASSERT_NE(nullptr, light);
  EXPECT_NEAR(7500.0, heavy->share_bps, 1.0);
  EXPECT_NEAR(2500.0, light->share_bps, 1.0);
}

TEST(QosBrokerTest, WorkConservingLendsIdleShareToActiveTenant) {
  BandwidthBroker::Options options;
  options.total_rate_bps = 10000.0;
  options.work_conserving = true;
  BandwidthBroker broker(options);
  broker.RegisterTenant(MakeTenant(1, 1.0));
  broker.RegisterTenant(MakeTenant(2, 1.0));
  // Only tenant 1 charges: it should inherit the whole pipe while
  // tenant 2 keeps its strict half on the books for instant resume.
  (void)broker.Reserve(1, 1);
  const auto usage = broker.Usage();
  EXPECT_NEAR(10000.0, FindUsage(usage, 1)->share_bps, 1.0);
  EXPECT_NEAR(5000.0, FindUsage(usage, 2)->share_bps, 1.0);
}

TEST(QosBrokerTest, StrictModeKeepsIdleReservations) {
  BandwidthBroker::Options options;
  options.total_rate_bps = 10000.0;
  options.work_conserving = false;
  BandwidthBroker broker(options);
  broker.RegisterTenant(MakeTenant(1, 1.0));
  broker.RegisterTenant(MakeTenant(2, 1.0));
  (void)broker.Reserve(1, 1);
  // Non-work-conserving: the active tenant stays pinned at its half
  // even though its peer is idle.
  EXPECT_NEAR(5000.0, FindUsage(broker.Usage(), 1)->share_bps, 1.0);
}

TEST(QosBrokerTest, UsageTracksConsumptionAndThrottling) {
  BandwidthBroker::Options options;
  options.total_rate_bps = 100000.0;  // burst = rate/20 = 5000
  BandwidthBroker broker(options);
  broker.RegisterTenant(MakeTenant(1, 1.0));
  broker.RegisterTenant(MakeTenant(2, 1.0));
  broker.Acquire(1, 2000);
  broker.Acquire(1, 20000);  // far past the burst -> must throttle
  broker.Acquire(2, 1000);   // inside its own burst -> never waits
  const auto usage_list = broker.Usage();
  const auto* usage = FindUsage(usage_list, 1);
  ASSERT_NE(nullptr, usage);
  EXPECT_EQ(22000u, usage->consumed_bytes);
  EXPECT_GE(usage->throttle_waits, 1u);
  EXPECT_GT(usage->throttled_us, 0u);
  // The flood's throttling lands on the flooding tenant alone.
  const auto* sipper = FindUsage(usage_list, 2);
  ASSERT_NE(nullptr, sipper);
  EXPECT_EQ(1000u, sipper->consumed_bytes);
  EXPECT_EQ(0u, sipper->throttle_waits);
  EXPECT_EQ(0u, sipper->throttled_us);
}

TEST(QosBrokerTest, UnknownTenantAutoRegistersWithDefaultWeight) {
  BandwidthBroker::Options options;
  options.total_rate_bps = 10000.0;
  options.default_weight = 2.0;
  BandwidthBroker broker(options);
  (void)broker.Reserve(42, 10);  // never registered
  const auto usage_list = broker.Usage();
  const auto* usage = FindUsage(usage_list, 42);
  ASSERT_NE(nullptr, usage) << "charges must not bypass enforcement";
  EXPECT_DOUBLE_EQ(2.0, usage->weight);
  EXPECT_EQ(10u, usage->consumed_bytes);
}

TEST(QosBrokerTest, AcquireCurrentUsesAmbientTenant) {
  BandwidthBroker::Options options;
  options.total_rate_bps = 1e9;  // effectively free, just accounting
  BandwidthBroker broker(options);
  const TenantContext ambient = MakeTenant(7, 1.0);
  const TenantContext fallback = MakeTenant(8, 1.0);
  broker.RegisterTenant(ambient);
  broker.RegisterTenant(fallback);
  {
    ScopedTenant scope(ambient);
    broker.AcquireCurrent(fallback, 100);
  }
  broker.AcquireCurrent(fallback, 50);  // no ambient -> fallback
  const auto usage = broker.Usage();
  EXPECT_EQ(100u, FindUsage(usage, 7)->consumed_bytes);
  EXPECT_EQ(50u, FindUsage(usage, 8)->consumed_bytes);
}

TEST(QosBrokerTest, ConcurrentAcquirersAreHeldToTheTotalRate) {
  BandwidthBroker::Options options;
  options.total_rate_bps = 50000.0;  // burst = 2500
  BandwidthBroker broker(options);
  broker.RegisterTenant(MakeTenant(1, 1.0));
  const Stopwatch timer;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&broker] {
      for (int i = 0; i < 5; ++i) broker.Acquire(1, 1000);
    });
  }
  for (auto& t : threads) t.join();
  // 20000 bytes minus the 2500 burst at 50000 B/s >= ~0.35 s.
  EXPECT_GT(timer.ElapsedSeconds(), 0.2);
}

}  // namespace
}  // namespace monarch::qos
