#include "qos/bandwidth_broker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/event_tracer.h"
#include "obs/json.h"

namespace monarch::qos {

BandwidthBroker::BandwidthBroker(Options options)
    : options_(options) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  consumed_ = registry.GetCounter(
      "qos.consumed_bytes", "bytes",
      "bytes charged through per-tenant bandwidth brokers");
  throttle_waits_ = registry.GetCounter(
      "qos.throttle_waits", "ops",
      "broker charges that had to wait for their tenant's share");
  throttled_us_ = registry.GetCounter(
      "qos.throttled_us", "us",
      "total time broker charges spent throttled");
  source_ = registry.AddSource([this] {
    std::vector<obs::MetricSample> out;
    for (const TenantUsage& usage : Usage()) {
      obs::MetricSample consumed;
      consumed.name = "qos.tenant.consumed_bytes";
      consumed.label = usage.name;
      consumed.unit = "bytes";
      consumed.help = "bytes this tenant charged through the broker";
      consumed.kind = obs::MetricKind::kCounter;
      consumed.value = usage.consumed_bytes;
      out.push_back(std::move(consumed));
      obs::MetricSample throttled;
      throttled.name = "qos.tenant.throttled_us";
      throttled.label = usage.name;
      throttled.unit = "us";
      throttled.help = "time this tenant's charges spent throttled";
      throttled.kind = obs::MetricKind::kCounter;
      throttled.value = usage.throttled_us;
      out.push_back(std::move(throttled));
      obs::MetricSample share;
      share.name = "qos.tenant.share_bps";
      share.label = usage.name;
      share.unit = "bytes";
      share.help =
          "this tenant's current effective bandwidth share (work-"
          "conserving: grows while peers are idle)";
      share.kind = obs::MetricKind::kGauge;
      share.gauge = static_cast<std::int64_t>(usage.share_bps);
      out.push_back(std::move(share));
    }
    return out;
  });
}

void BandwidthBroker::RegisterTenant(const TenantContext& tenant) {
  std::lock_guard lock(mu_);
  Tenant& state = tenants_[tenant.tenant_id];
  state.ctx = tenant;
  if (state.ctx.weight <= 0.0) state.ctx.weight = options_.default_weight;
  if (enabled() && state.limiter == nullptr) {
    // Start at the strict weighted share; recomputed on first charge.
    state.limiter = std::make_unique<RateLimiter>(
        std::max(options_.total_rate_bps, 1.0));
  }
  RecomputeSharesLocked(ProcessClock().Now());
}

BandwidthBroker::Tenant& BandwidthBroker::GetTenantLocked(int tenant_id) {
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    Tenant& state = tenants_[tenant_id];
    state.ctx.tenant_id = tenant_id;
    state.ctx.name = "tenant-" + std::to_string(tenant_id);
    state.ctx.weight = options_.default_weight;
    if (enabled()) {
      state.limiter = std::make_unique<RateLimiter>(
          std::max(options_.total_rate_bps, 1.0));
    }
    return state;
  }
  return it->second;
}

void BandwidthBroker::RecomputeSharesLocked(TimePoint now) {
  if (!enabled()) return;
  double active_weight = 0.0;
  double all_weight = 0.0;
  for (const auto& [id, tenant] : tenants_) {
    all_weight += tenant.ctx.weight;
    if (now - tenant.last_active <= options_.active_window) {
      active_weight += tenant.ctx.weight;
    }
  }
  const double denominator =
      options_.work_conserving
          ? (active_weight > 0.0 ? active_weight : all_weight)
          : all_weight;
  if (denominator <= 0.0) return;
  for (auto& [id, tenant] : tenants_) {
    const bool active =
        now - tenant.last_active <= options_.active_window;
    // Work-conserving: idle tenants keep their strict share on the
    // books (they can resume instantly at that rate; the refilled burst
    // absorbs the ramp) while active tenants split the whole pipe.
    const double share =
        options_.work_conserving && !active
            ? options_.total_rate_bps * tenant.ctx.weight /
                  std::max(all_weight, tenant.ctx.weight)
            : options_.total_rate_bps * tenant.ctx.weight / denominator;
    if (tenant.limiter != nullptr && share > 0.0 &&
        std::abs(share - tenant.share_bps) >
            0.01 * std::max(share, tenant.share_bps)) {
      tenant.limiter->SetRate(share);
    }
    tenant.share_bps = share;
  }
}

Duration BandwidthBroker::Reserve(int tenant_id, std::uint64_t bytes) {
  if (!enabled() || bytes == 0) return kZeroDuration;
  RateLimiter* limiter = nullptr;
  {
    std::lock_guard lock(mu_);
    Tenant& tenant = GetTenantLocked(tenant_id);
    const TimePoint now = ProcessClock().Now();
    const bool was_idle =
        now - tenant.last_active > options_.active_window;
    tenant.last_active = now;
    tenant.consumed_bytes += bytes;
    // Joining or leaving the active set shifts everyone's share; steady
    // charging recomputes too (cheap: a handful of tenants) so shares
    // track peers going idle without a dedicated timer.
    if (was_idle || options_.work_conserving) RecomputeSharesLocked(now);
    limiter = tenant.limiter.get();
  }
  if (consumed_ != nullptr) consumed_->Increment(bytes);
  if (limiter == nullptr) return kZeroDuration;
  return limiter->Reserve(static_cast<double>(bytes));
}

void BandwidthBroker::Acquire(int tenant_id, std::uint64_t bytes) {
  const Duration wait = Reserve(tenant_id, bytes);
  if (wait <= kZeroDuration) return;
  const auto wait_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wait).count());
  std::string tenant_name;
  {
    std::lock_guard lock(mu_);
    Tenant& tenant = GetTenantLocked(tenant_id);
    ++tenant.throttle_waits;
    tenant.throttled_us += wait_us;
    tenant_name = tenant.ctx.name;
  }
  if (throttle_waits_ != nullptr) throttle_waits_->Increment();
  if (throttled_us_ != nullptr) throttled_us_->Increment(wait_us);
  obs::EventTracer& tracer = obs::EventTracer::Global();
  if (tracer.enabled()) {
    tracer.RecordInstant(
        "qos.throttle", "qos",
        "\"tenant\":" + obs::JsonQuote(tenant_name) +
            ",\"bytes\":" + std::to_string(bytes) +
            ",\"wait_us\":" + std::to_string(wait_us));
  }
  ProcessClock().SleepFor(wait);
}

void BandwidthBroker::AcquireCurrent(const TenantContext& fallback,
                                     std::uint64_t bytes) {
  const TenantContext* current = CurrentTenant();
  Acquire(current != nullptr ? current->tenant_id : fallback.tenant_id,
          bytes);
}

std::vector<BandwidthBroker::TenantUsage> BandwidthBroker::Usage() const {
  std::vector<TenantUsage> out;
  std::lock_guard lock(mu_);
  out.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    TenantUsage usage;
    usage.tenant_id = id;
    usage.name = tenant.ctx.name;
    usage.io_class = tenant.ctx.io_class;
    usage.weight = tenant.ctx.weight;
    usage.share_bps = tenant.share_bps;
    usage.consumed_bytes = tenant.consumed_bytes;
    usage.throttle_waits = tenant.throttle_waits;
    usage.throttled_us = tenant.throttled_us;
    out.push_back(std::move(usage));
  }
  return out;
}

}  // namespace monarch::qos
