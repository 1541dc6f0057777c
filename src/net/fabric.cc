#include "net/fabric.h"

#include <cassert>

namespace ovs {

Fabric::Fabric(const Config& cfg) : cfg_(cfg) {
  switches_.reserve(cfg.n_hypervisors);
  next_port_.assign(cfg.n_hypervisors, 1);
  for (size_t h = 0; h < cfg.n_hypervisors; ++h) {
    auto sw = std::make_unique<Switch>(cfg.switch_config);
    // Tunnel ports toward every peer.
    for (size_t peer = 0; peer < cfg.n_hypervisors; ++peer)
      if (peer != h) sw->add_port(tunnel_port(peer));
    // Output relay: tunnel transmissions are queued for peer delivery.
    const size_t hv = h;
    sw->set_output_handler([this, hv](uint32_t port, const Packet& pkt) {
      if (hv == active_hv_) pending_.push_back({hv, port, pkt});
    });
    switches_.push_back(std::move(sw));
  }

  // Place VMs round-robin across hypervisors.
  size_t vm_id = 0;
  for (uint64_t tenant = 1; tenant <= cfg.n_tenants; ++tenant) {
    for (size_t h = 0; h < cfg.n_hypervisors; ++h) {
      for (size_t v = 0; v < cfg.vms_per_tenant_per_hv; ++v) {
        Vm vm;
        vm.id = vm_id++;
        vm.hypervisor = h;
        vm.port = next_free_port(h);
        vm.tenant = tenant;
        vm.mac = EthAddr(0x02, 0x10, static_cast<uint8_t>(tenant),
                         static_cast<uint8_t>(h), static_cast<uint8_t>(v),
                         0x01);
        vm.ip = Ipv4(10, static_cast<uint8_t>(tenant),
                     static_cast<uint8_t>(h), static_cast<uint8_t>(v + 1));
        switches_[h]->add_port(vm.port);
        vms_.push_back(vm);
      }
    }
  }

  // Static pipeline parts: ingress classification, ACLs, and the L2/egress
  // tables which program_l2() (re)builds from VM locations.
  for (size_t h = 0; h < cfg.n_hypervisors; ++h) {
    Switch& sw = *switches_[h];
    FlowTable& ingress = sw.table(0);
    for (const Vm& vm : vms_)
      if (vm.hypervisor == h)
        ingress.add_flow(
            MatchBuilder().in_port(vm.port), 10,
            OfActions().set_field(FieldId::kMetadata, vm.tenant).resubmit(1));
    for (size_t peer = 0; peer < cfg.n_hypervisors; ++peer) {
      if (peer == h) continue;
      for (uint64_t tenant = 1; tenant <= cfg.n_tenants; ++tenant)
        ingress.add_flow(
            MatchBuilder().in_port(tunnel_port(peer)).tun_id(tenant), 10,
            OfActions().set_field(FieldId::kMetadata, tenant).resubmit(1));
    }
    FlowTable& acl = sw.table(2);
    for (uint64_t tenant = 1; tenant <= cfg.n_tenants; ++tenant) {
      if (tenant - 1 < cfg.acl_tenants)
        acl.add_flow(MatchBuilder().metadata(tenant).tcp().tp_dst(25), 20,
                     OfActions::drop());
      acl.add_flow(MatchBuilder().metadata(tenant), 1,
                   OfActions().resubmit(3));
    }
  }
  program_l2(0);
}

uint32_t Fabric::next_free_port(size_t hypervisor) {
  return next_port_[hypervisor]++;
}

void Fabric::program_l2(uint64_t now_ns) {
  (void)now_ns;
  for (size_t h = 0; h < switches_.size(); ++h) {
    Switch& sw = *switches_[h];
    FlowTable& l2 = sw.table(1);
    FlowTable& egress = sw.table(3);
    l2.clear();
    egress.clear();
    for (const Vm& vm : vms_) {
      // L2: destination MAC -> logical port: local VM port, or the tunnel
      // port toward the VM's hypervisor.
      const uint32_t logical_port =
          vm.hypervisor == h ? vm.port : tunnel_port(vm.hypervisor);
      l2.add_flow(MatchBuilder().metadata(vm.tenant).eth_dst(vm.mac), 10,
                  OfActions().set_reg(1, logical_port).resubmit(2));
      // Egress.
      if (vm.hypervisor == h) {
        egress.add_flow(MatchBuilder().reg(1, vm.port), 10,
                        OfActions().output(vm.port));
      } else {
        egress.add_flow(
            MatchBuilder().reg(1, tunnel_port(vm.hypervisor))
                .metadata(vm.tenant),
            10,
            OfActions().tunnel(tunnel_port(vm.hypervisor), vm.tenant));
      }
    }
  }
}

Fabric::Delivery Fabric::send(const Vm& src, const Vm& dst, uint16_t sport,
                              uint16_t dport, uint64_t now_ns,
                              uint8_t proto) {
  Packet p;
  p.key.set_in_port(src.port);
  p.key.set_eth_src(src.mac);
  p.key.set_eth_dst(dst.mac);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(proto);
  p.key.set_nw_src(src.ip);
  p.key.set_nw_dst(dst.ip);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 500;

  Delivery d;
  pending_.clear();
  active_hv_ = src.hypervisor;
  switches_[src.hypervisor]->inject(p, now_ns);
  switches_[src.hypervisor]->handle_upcalls(now_ns);

  // Relay tunnel transmissions between hypervisors; VM-port transmissions
  // are deliveries.
  for (size_t hops = 0; hops < 8; ++hops) {
    std::vector<PendingTx> batch;
    batch.swap(pending_);
    if (batch.empty()) break;
    for (PendingTx& tx : batch) {
      if (tx.port < 1000) {
        d.delivered = true;
        d.dst_hypervisor = tx.hypervisor;
        d.dst_port = tx.port;
        continue;
      }
      // A tunnel transmission: deliver to the peer. The receiver sees the
      // frame on ITS tunnel port facing the sender, with tun_id intact.
      const size_t peer = tx.port - 1000;
      assert(peer < switches_.size());
      Packet relay = tx.pkt;
      relay.key.set_in_port(tunnel_port(tx.hypervisor));
      ++d.tunnel_hops;
      active_hv_ = peer;
      switches_[peer]->inject(relay, now_ns);
      switches_[peer]->handle_upcalls(now_ns);
    }
  }
  return d;
}

void Fabric::migrate(size_t vm_id, size_t new_hypervisor, uint64_t now_ns) {
  assert(vm_id < vms_.size() && new_hypervisor < switches_.size());
  Vm& vm = vms_[vm_id];
  if (vm.hypervisor == new_hypervisor) return;
  // Detach from the old hypervisor.
  switches_[vm.hypervisor]->table(0).delete_flow(
      MatchBuilder().in_port(vm.port), 10);
  switches_[vm.hypervisor]->remove_port(vm.port);
  // Attach to the new one.
  vm.hypervisor = new_hypervisor;
  vm.port = next_free_port(new_hypervisor);
  switches_[new_hypervisor]->add_port(vm.port);
  switches_[new_hypervisor]->table(0).add_flow(
      MatchBuilder().in_port(vm.port), 10,
      OfActions().set_field(FieldId::kMetadata, vm.tenant).resubmit(1));
  // Controller reprograms the fleet's L2/egress tables.
  program_l2(now_ns);
}

void Fabric::tick(uint64_t now_ns) {
  for (auto& sw : switches_) sw->run_maintenance(now_ns);
}

size_t Fabric::total_flows() const {
  size_t n = 0;
  for (const auto& sw : switches_)
    n += sw->backend().flow_count();
  return n;
}

}  // namespace ovs
