#include "qos/tenant.h"

namespace monarch::qos {

namespace {
thread_local const TenantContext* g_current_tenant = nullptr;
}  // namespace

const TenantContext* CurrentTenant() noexcept { return g_current_tenant; }

ScopedTenant::ScopedTenant(const TenantContext& tenant) noexcept
    : previous_(g_current_tenant) {
  g_current_tenant = &tenant;
}

ScopedTenant::~ScopedTenant() { g_current_tenant = previous_; }

}  // namespace monarch::qos
