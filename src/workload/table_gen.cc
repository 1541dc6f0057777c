#include "workload/table_gen.h"

#include <cassert>

namespace ovs {

void install_paper_microbench_table(Switch& sw, uint32_t out_port) {
  FlowTable& t = sw.table(0);
  t.add_flow(MatchBuilder().arp(), 40, OfActions().output(out_port));
  t.add_flow(MatchBuilder().ip().nw_dst_prefix(Ipv4(11, 1, 1, 1), 16), 30,
             OfActions().output(out_port));
  t.add_flow(
      MatchBuilder().tcp().nw_dst(Ipv4(9, 1, 1, 1)).tp_src(10).tp_dst(10), 20,
      OfActions().output(out_port));
  t.add_flow(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 1, 1, 1), 24), 10,
             OfActions().output(out_port));
}

NvpTopology install_nvp_pipeline(Switch& sw, const NvpConfig& cfg) {
  assert(sw.pipeline().n_tables() >= 4);
  NvpTopology topo;
  Rng rng(cfg.seed);
  topo.n_acl_tenants =
      static_cast<size_t>(static_cast<double>(cfg.n_tenants) *
                          cfg.acl_tenant_fraction);

  sw.add_port(cfg.tunnel_port);

  uint32_t next_port = cfg.first_vm_port;
  for (uint64_t tenant = 1; tenant <= cfg.n_tenants; ++tenant) {
    for (size_t v = 0; v < cfg.vms_per_tenant; ++v) {
      NvpVm vm;
      vm.port = next_port++;
      vm.tenant = tenant;
      vm.mac = EthAddr(0x02, 0, 0, static_cast<uint8_t>(tenant),
                       static_cast<uint8_t>(v >> 8),
                       static_cast<uint8_t>(v & 0xff));
      vm.ip = Ipv4(10, static_cast<uint8_t>(tenant),
                   static_cast<uint8_t>(v >> 8),
                   static_cast<uint8_t>(v & 0xff));
      topo.vms.push_back(vm);
      sw.add_port(vm.port);
    }
  }

  FlowTable& ingress = sw.table(0);
  FlowTable& l2 = sw.table(1);
  FlowTable& acl = sw.table(2);
  FlowTable& egress = sw.table(3);

  // Table 0: ingress classification. Local VM ports and tunnel traffic are
  // mapped onto the logical datapath id, stored in the metadata field so
  // classifier partitioning (§5.5) can prune later tables.
  for (const NvpVm& vm : topo.vms) {
    ingress.add_flow(
        MatchBuilder().in_port(vm.port), 10,
        OfActions().set_field(FieldId::kMetadata, vm.tenant).resubmit(1));
  }
  for (uint64_t tenant = 1; tenant <= cfg.n_tenants; ++tenant) {
    ingress.add_flow(
        MatchBuilder().in_port(cfg.tunnel_port).tun_id(tenant), 10,
        OfActions().set_field(FieldId::kMetadata, tenant).resubmit(1));
  }

  // Table 1: per-tenant L2 forwarding. The destination "logical port" is
  // written into reg1 (a §3.3 register) and resolved in the egress table.
  for (const NvpVm& vm : topo.vms) {
    l2.add_flow(MatchBuilder().metadata(vm.tenant).eth_dst(vm.mac), 10,
                OfActions().set_reg(1, vm.port).resubmit(2));
  }

  // Table 2: ACL stage. ACL tenants drop a few TCP destination ports; all
  // other traffic proceeds. Non-ACL tenants skip straight through — their
  // megaflows must not match on L4 (the §5.3 staged-lookup win).
  for (uint64_t tenant = 1; tenant <= cfg.n_tenants; ++tenant) {
    const bool has_acl = (tenant - 1) < topo.n_acl_tenants;
    if (has_acl) {
      for (size_t a = 0; a < cfg.acls_per_tenant; ++a) {
        const uint16_t blocked =
            static_cast<uint16_t>(rng.range(1, 1023));
        topo.blocked_ports.push_back(blocked);
        acl.add_flow(
            MatchBuilder().metadata(tenant).tcp().tp_dst(blocked), 20,
            OfActions::drop());
      }
    }
    if (has_acl && cfg.stateful_acl_tenants) {
      // Stateful tenants: traffic passes through conntrack (commit) before
      // egress, yielding per-connection megaflows.
      acl.add_flow(MatchBuilder().metadata(tenant).ip(), 1,
                   OfActions().ct(3, /*commit=*/true));
      acl.add_flow(MatchBuilder().metadata(tenant), 0,
                   OfActions().resubmit(3));
    } else {
      acl.add_flow(MatchBuilder().metadata(tenant), 1,
                   OfActions().resubmit(3));
    }
  }

  // Table 3: egress. reg1 identifies the destination port.
  for (const NvpVm& vm : topo.vms) {
    egress.add_flow(MatchBuilder().reg(1, vm.port), 10,
                    OfActions().output(vm.port));
  }

  return topo;
}

Packet nvp_packet(const NvpVm& src, const NvpVm& dst, uint16_t sport,
                  uint16_t dport, uint8_t proto) {
  Packet p;
  FlowKey& k = p.key;
  k.set_in_port(src.port);
  k.set_eth_src(src.mac);
  k.set_eth_dst(dst.mac);
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(proto);
  k.set_nw_src(src.ip);
  k.set_nw_dst(dst.ip);
  k.set_tp_src(sport);
  k.set_tp_dst(dport);
  p.size_bytes = 500;
  return p;
}

namespace {

// Mask shapes seen in real OpenFlow tables. Every shape includes at least
// one high-entropy field so large rule counts fit without key collisions.
FlowMask random_mask(Rng& rng) {
  FlowMask m;
  m.set_exact(FieldId::kEthType);
  if (rng.chance(0.5)) m.set_exact(FieldId::kNwProto);
  if (rng.chance(0.6))
    m.set_prefix(FieldId::kNwDst, static_cast<unsigned>(rng.range(8, 32)));
  if (rng.chance(0.4))
    m.set_prefix(FieldId::kNwSrc, static_cast<unsigned>(rng.range(8, 32)));
  if (rng.chance(0.3)) m.set_exact(FieldId::kTpDst);
  if (rng.chance(0.2)) m.set_exact(FieldId::kTpSrc);
  if (rng.chance(0.2)) m.set_exact(FieldId::kEthDst);
  if (rng.chance(0.15)) m.set_exact(FieldId::kInPort);
  if (!m.has_field(FieldId::kNwDst) && !m.has_field(FieldId::kNwSrc) &&
      !m.has_field(FieldId::kEthDst))
    m.set_exact(FieldId::kNwSrc);
  return m;
}

}  // namespace

std::vector<std::unique_ptr<OwnedRule>> build_random_classifier(
    Classifier& cls, size_t n_flows, size_t n_tuples, Rng& rng) {
  // Draw distinct mask shapes first.
  std::vector<FlowMask> masks;
  while (masks.size() < n_tuples) {
    FlowMask m = random_mask(rng);
    bool dup = false;
    for (const FlowMask& e : masks) dup = dup || e == m;
    if (!dup) masks.push_back(m);
  }

  std::vector<std::unique_ptr<OwnedRule>> rules;
  rules.reserve(n_flows);
  size_t attempts = 0;
  while (rules.size() < n_flows && attempts < n_flows * 4) {
    ++attempts;
    Match match;
    match.mask = masks[attempts % masks.size()];
    FlowKey key = random_classifier_packet(rng);
    match.key = key;
    match.normalize();
    const int prio = static_cast<int>(rng.range(1, 64));
    if (cls.find_exact(match, prio) != nullptr) continue;  // duplicate
    auto r = std::make_unique<OwnedRule>(match, prio);
    cls.insert(r.get());
    rules.push_back(std::move(r));
  }
  return rules;
}

FlowKey random_classifier_packet(Rng& rng) {
  FlowKey k;
  k.set_in_port(static_cast<uint32_t>(rng.range(1, 16)));
  k.set_eth_src(EthAddr(0x0200000000ULL | rng.uniform(1 << 16)));
  k.set_eth_dst(EthAddr(0x0200000000ULL | rng.uniform(1 << 16)));
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(rng.chance(0.7) ? ipproto::kTcp : ipproto::kUdp);
  k.set_nw_src(Ipv4(static_cast<uint32_t>(rng.next())));
  k.set_nw_dst(Ipv4(static_cast<uint32_t>(rng.next())));
  k.set_tp_src(static_cast<uint16_t>(rng.range(1024, 65535)));
  k.set_tp_dst(static_cast<uint16_t>(rng.range(1, 1024)));
  return k;
}

}  // namespace ovs
