// Network virtualization (the paper's motivating workload, §1-§3): an
// NVP-style multi-table pipeline with logical datapaths for two tenants,
// tunnel ingress, per-tenant ACLs, and register-based forwarding — and a
// look at the megaflows it generates.
//
// Run: build/examples/example_network_virtualization
#include <cstdio>

#include "sim/clock.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

using namespace ovs;

int main() {
  Switch sw;
  NvpConfig cfg;
  cfg.n_tenants = 2;
  cfg.vms_per_tenant = 3;
  cfg.acl_tenant_fraction = 0.5;  // tenant 1 carries L4 ACLs, tenant 2 not
  cfg.acls_per_tenant = 2;
  NvpTopology topo = install_nvp_pipeline(sw, cfg);

  std::printf("pipeline: 4 tables, %zu flows total; %zu VMs over 2 logical "
              "datapaths\n",
              sw.pipeline().flow_count(), topo.vms.size());
  for (const NvpVm& vm : topo.vms)
    std::printf("  tenant %llu  port %-3u mac %s ip %s\n",
                (unsigned long long)vm.tenant, vm.port,
                vm.mac.to_string().c_str(), vm.ip.to_string().c_str());

  VirtualClock clock;
  auto t1 = topo.tenant_vms(1);
  auto t2 = topo.tenant_vms(2);

  // Intra-tenant traffic flows; cross-tenant traffic is isolated.
  std::printf("\n-- tenant isolation --\n");
  {
    Packet ok = nvp_packet(*t1[0], *t1[1], 40000, 443);
    sw.inject(ok, clock.now());
    sw.handle_upcalls(clock.now());
    std::printf("tenant1 VM->VM:        delivered=%llu (expected 1)\n",
                (unsigned long long)sw.port_stats(t1[1]->port).tx_packets);
    Packet cross = nvp_packet(*t1[0], *t2[0], 40000, 443);
    sw.inject(cross, clock.now());
    sw.handle_upcalls(clock.now());
    std::printf("tenant1 -> tenant2 VM: delivered=%llu (expected 0; "
                "different logical datapath)\n",
                (unsigned long long)sw.port_stats(t2[0]->port).tx_packets);
  }

  // Tunnel ingress: traffic from a remote hypervisor is classified onto
  // the tenant's logical datapath by tunnel key.
  std::printf("\n-- tunnel ingress --\n");
  {
    Packet p = nvp_packet(*t2[0], *t2[1], 40000, 443);
    p.key.set_in_port(cfg.tunnel_port);
    p.key.set_tun_id(2);
    sw.inject(p, clock.now());
    sw.handle_upcalls(clock.now());
    std::printf("remote -> tenant2 VM via tunnel (tun_id=2): delivered=%llu\n",
                (unsigned long long)sw.port_stats(t2[1]->port).tx_packets);
  }

  // The megaflows: ACL-tenant flows match L4 ports; the other tenant's
  // flows leave them wildcarded (§5.3's logical-datapath example).
  std::printf("\n-- generated megaflows --\n");
  for (Datapath::FlowRef f : sw.backend().dump())
    std::printf("  %-10s mask{%s}\n",
                sw.backend().flow_actions(f).drops() ? "[drop]" : "[fwd]",
                sw.backend().flow_match(f).mask.to_string().c_str());

  // ACL enforcement.
  std::printf("\n-- ACLs --\n");
  {
    const uint16_t blocked = topo.blocked_ports.front();
    Packet p = nvp_packet(*t1[0], *t1[1], 40000, blocked);
    const uint64_t before = sw.port_stats(t1[1]->port).tx_packets;
    sw.inject(p, clock.now());
    sw.handle_upcalls(clock.now());
    std::printf("tenant1 traffic to blocked port %u: delivered=%llu "
                "(expected 0)\n",
                blocked,
                (unsigned long long)(sw.port_stats(t1[1]->port).tx_packets -
                                     before));
  }

  const auto& s = sw.backend().stats();
  std::printf("\ndatapath: %llu packets, %.0f%% cache hits, %zu megaflows, "
              "%zu masks\n",
              (unsigned long long)s.packets,
              100.0 *
                  static_cast<double>(s.microflow_hits + s.megaflow_hits) /
                  static_cast<double>(s.packets),
              sw.backend().flow_count(), sw.backend().mask_count());
  return 0;
}
