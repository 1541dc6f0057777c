// A miniature datacenter: hypervisors joined by a tunnel mesh, tenants
// spread across them, live migration — the deployment the paper's switch
// was built for (§1-§2).
//
// Run: build/examples/example_datacenter_fabric
#include <cstdio>

#include "net/fabric.h"
#include "sim/clock.h"

using namespace ovs;

int main() {
  Fabric::Config cfg;
  cfg.n_hypervisors = 4;
  cfg.n_tenants = 2;
  cfg.vms_per_tenant_per_hv = 1;
  cfg.acl_tenants = 1;
  Fabric fab(cfg);
  VirtualClock clock;

  std::printf("fabric: %zu hypervisors, %zu VMs, full tunnel mesh\n",
              fab.n_hypervisors(), fab.vms().size());
  for (const Fabric::Vm& vm : fab.vms())
    std::printf("  vm%zu tenant %llu on hypervisor %zu port %u (%s)\n",
                vm.id, (unsigned long long)vm.tenant, vm.hypervisor, vm.port,
                vm.ip.to_string().c_str());

  const Fabric::Vm* src = nullptr;
  const Fabric::Vm* dst = nullptr;
  for (const Fabric::Vm& v : fab.vms()) {
    if (v.tenant != 1) continue;
    if (v.hypervisor == 0) src = &v;
    if (v.hypervisor == 3) dst = &v;
  }

  std::printf("\n-- cross-hypervisor traffic --\n");
  auto d = fab.send(*src, *dst, 40000, 443, clock.now());
  std::printf("vm%zu -> vm%zu: %s via %zu tunnel hop(s), landed on "
              "hypervisor %zu\n",
              src->id, dst->id, d.delivered ? "delivered" : "DROPPED",
              d.tunnel_hops, d.dst_hypervisor);

  std::printf("\n-- the tenant's ACL holds across tunnels --\n");
  auto smtp = fab.send(*src, *dst, 40001, 25, clock.now());
  std::printf("vm%zu -> vm%zu port 25 (blocked): %s\n", src->id, dst->id,
              smtp.delivered ? "DELIVERED (bug!)" : "dropped");

  std::printf("\n-- steady state: new connections ride the megaflows --\n");
  const uint64_t setups0 = fab.hypervisor(0).counters().flow_setups;
  for (uint16_t i = 0; i < 100; ++i)
    fab.send(*src, *dst, static_cast<uint16_t>(42000 + i), 443, clock.now());
  std::printf("100 new connections caused %llu additional flow setups on "
              "the source hypervisor\n",
              (unsigned long long)(fab.hypervisor(0).counters().flow_setups -
                                   setups0));

  std::printf("\n-- live migration --\n");
  std::printf("vm%zu migrates from hypervisor %zu to 1...\n", dst->id,
              dst->hypervisor);
  clock.advance(kSecond);
  fab.migrate(dst->id, 1, clock.now());
  fab.tick(clock.now());
  const Fabric::Vm& moved = fab.vms()[dst->id];
  auto after = fab.send(*src, moved, 43000, 443, clock.now());
  std::printf("traffic now lands on hypervisor %zu port %u (%s)\n",
              after.dst_hypervisor, after.dst_port,
              after.delivered ? "delivered" : "DROPPED");

  std::printf("\nper-hypervisor caches:\n");
  for (size_t h = 0; h < fab.n_hypervisors(); ++h) {
    auto& sw = fab.hypervisor(h);
    const auto& s = sw.backend().stats();
    std::printf("  hv%zu: %llu pkts, %zu megaflows, %zu masks, "
                "%llu flow setups\n",
                h, (unsigned long long)s.packets,
                sw.backend().flow_count(), sw.backend().mask_count(),
                (unsigned long long)sw.counters().flow_setups);
  }
  return 0;
}
