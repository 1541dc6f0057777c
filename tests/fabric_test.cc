// Integration tests for the multi-hypervisor tunnel fabric.
#include "net/fabric.h"

#include <gtest/gtest.h>

#include "sim/clock.h"

namespace ovs {
namespace {

// First VM of `tenant` on hypervisor `hv`.
const Fabric::Vm* vm_on(const Fabric& fab, uint64_t tenant, size_t hv) {
  for (const Fabric::Vm& v : fab.vms())
    if (v.tenant == tenant && v.hypervisor == hv) return &v;
  return nullptr;
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fab_(Fabric::Config{}) {}
  Fabric fab_;
  VirtualClock clock_;
};

TEST_F(FabricTest, LocalDelivery) {
  const Fabric::Vm* a = vm_on(fab_, 1, 0);
  // Second VM of tenant 1 on hypervisor 0.
  const Fabric::Vm* b = nullptr;
  for (const Fabric::Vm& v : fab_.vms())
    if (v.tenant == 1 && v.hypervisor == 0 && &v != a) b = &v;
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  auto d = fab_.send(*a, *b, 40000, 443, clock_.now());
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.dst_hypervisor, 0u);
  EXPECT_EQ(d.dst_port, b->port);
  EXPECT_EQ(d.tunnel_hops, 0u);
}

TEST_F(FabricTest, CrossHypervisorDeliveryViaTunnel) {
  const Fabric::Vm* a = vm_on(fab_, 1, 0);
  const Fabric::Vm* b = vm_on(fab_, 1, 2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  auto d = fab_.send(*a, *b, 40000, 443, clock_.now());
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.dst_hypervisor, 2u);
  EXPECT_EQ(d.dst_port, b->port);
  EXPECT_EQ(d.tunnel_hops, 1u);  // exactly one tunnel crossing
}

TEST_F(FabricTest, CrossTenantTrafficIsolated) {
  const Fabric::Vm* a = vm_on(fab_, 1, 0);
  const Fabric::Vm* b = vm_on(fab_, 2, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  auto d = fab_.send(*a, *b, 40000, 443, clock_.now());
  EXPECT_FALSE(d.delivered);
}

TEST_F(FabricTest, AclEnforcedAcrossTunnels) {
  // Tenant 1 has the SMTP ACL; it must hold for remote destinations too.
  const Fabric::Vm* a = vm_on(fab_, 1, 0);
  const Fabric::Vm* b = vm_on(fab_, 1, 1);
  EXPECT_FALSE(fab_.send(*a, *b, 40000, 25, clock_.now()).delivered);
  EXPECT_TRUE(fab_.send(*a, *b, 40000, 80, clock_.now()).delivered);
  // Tenant 2 has no ACL.
  const Fabric::Vm* c = vm_on(fab_, 2, 0);
  const Fabric::Vm* e = vm_on(fab_, 2, 1);
  EXPECT_TRUE(fab_.send(*c, *e, 40000, 25, clock_.now()).delivered);
}

TEST_F(FabricTest, RepeatTrafficHitsCaches) {
  const Fabric::Vm* a = vm_on(fab_, 2, 0);
  const Fabric::Vm* b = vm_on(fab_, 2, 1);
  fab_.send(*a, *b, 40000, 443, clock_.now());
  const uint64_t setups_src =
      fab_.hypervisor(0).counters().flow_setups;
  const uint64_t setups_dst =
      fab_.hypervisor(1).counters().flow_setups;
  // More connections along the same path: megaflows already cover them
  // (tenant 2 has no L4 ACL, so ports are wildcarded).
  for (uint16_t i = 0; i < 50; ++i)
    EXPECT_TRUE(
        fab_.send(*a, *b, static_cast<uint16_t>(41000 + i),
                  static_cast<uint16_t>(1000 + i), clock_.now())
            .delivered);
  EXPECT_EQ(fab_.hypervisor(0).counters().flow_setups, setups_src);
  EXPECT_EQ(fab_.hypervisor(1).counters().flow_setups, setups_dst);
}

TEST_F(FabricTest, MigrationReroutesTraffic) {
  const Fabric::Vm* a = vm_on(fab_, 1, 0);
  const Fabric::Vm* b = vm_on(fab_, 1, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  const size_t b_id = b->id;
  EXPECT_EQ(fab_.send(*a, *b, 40000, 443, clock_.now()).dst_hypervisor, 1u);

  // b migrates to hypervisor 2; the controller reprograms the fleet and
  // revalidators fix up stale cached flows.
  clock_.advance(kSecond);
  fab_.migrate(b_id, 2, clock_.now());
  fab_.tick(clock_.now());
  const Fabric::Vm& b_new = fab_.vms()[b_id];
  EXPECT_EQ(b_new.hypervisor, 2u);

  auto d = fab_.send(*a, b_new, 40001, 443, clock_.now());
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.dst_hypervisor, 2u);
  EXPECT_EQ(d.dst_port, b_new.port);
}

TEST_F(FabricTest, TunnelMegaflowsMatchTunnelId) {
  const Fabric::Vm* a = vm_on(fab_, 1, 0);
  const Fabric::Vm* b = vm_on(fab_, 1, 1);
  fab_.send(*a, *b, 40000, 443, clock_.now());
  // The receiving hypervisor's cache must key tunneled flows by tun_id
  // (ingress classification), so tenants stay isolated in the fast path.
  bool found_tunnel_flow = false;
  const Datapath& dp = fab_.hypervisor(1).backend();
  for (Datapath::FlowRef f : dp.dump()) {
    if (dp.flow_match(f).mask.has_field(FieldId::kTunId)) {
      found_tunnel_flow = true;
      EXPECT_TRUE(dp.flow_match(f).mask.is_exact(FieldId::kTunId));
    }
  }
  EXPECT_TRUE(found_tunnel_flow);
}

TEST_F(FabricTest, FabricScalesToManyHypervisors) {
  Fabric::Config cfg;
  cfg.n_hypervisors = 8;
  cfg.n_tenants = 3;
  cfg.vms_per_tenant_per_hv = 1;
  Fabric fab(cfg);
  VirtualClock clock;
  // All-pairs traffic within tenant 2.
  size_t sent = 0, delivered = 0;
  for (const Fabric::Vm& s : fab.vms()) {
    if (s.tenant != 2) continue;
    for (const Fabric::Vm& t : fab.vms()) {
      if (t.tenant != 2 || t.id == s.id) continue;
      ++sent;
      delivered += fab.send(s, t, 50000, 8080, clock.now()).delivered;
    }
  }
  EXPECT_EQ(sent, delivered);
  EXPECT_GT(fab.total_flows(), 0u);
}

// Multi-worker hypervisors (datapath_workers >= 2) hold a replica of each
// flow per worker; total_flows() counts flows, not replicas.
TEST_F(FabricTest, TotalFlowsCountsShardedHypervisors) {
  Fabric::Config cfg;
  cfg.switch_config.datapath_workers = 2;
  Fabric fab(cfg);
  VirtualClock clock;
  const Fabric::Vm* a = vm_on(fab, 1, 0);
  const Fabric::Vm* b = vm_on(fab, 1, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(fab.send(*a, *b, 40000, 443, clock.now()).delivered);
  size_t per_hv = 0;
  for (size_t h = 0; h < fab.n_hypervisors(); ++h)
    per_hv += fab.hypervisor(h).backend().flow_count();
  EXPECT_GT(fab.total_flows(), 0u);
  EXPECT_EQ(fab.total_flows(), per_hv);
}

}  // namespace
}  // namespace ovs
