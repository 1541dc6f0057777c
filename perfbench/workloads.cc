#include "workloads.h"

#include <array>
#include <cstring>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "packet/parser.h"
#include "util/rng.h"
#include "workload/skew.h"
#include "workload/table_gen.h"

namespace perfbench {

namespace {

using ovs::EthAddr;
using ovs::Ipv4;

// Both NVP workloads run the same 8 tenants x 8 VMs, half the tenants with
// L4 ACLs; only crr_stateful sends the ACL tenants through conntrack.
ovs::NvpConfig nvp_config(Kind kind) {
  ovs::NvpConfig c;
  c.n_tenants = 8;
  c.vms_per_tenant = 8;
  c.acl_tenant_fraction = 0.5;
  c.stateful_acl_tenants = kind == Kind::kCrrStateful;
  return c;
}

// Service ports sit above the ACLs' blocked range (1..1023), so no frame is
// dropped by policy and every frame of these workloads has an egress.
uint16_t service_port(ovs::Rng& rng) {
  return static_cast<uint16_t>(8000 + rng.uniform(16));
}

uint16_t ephemeral_start(ovs::Rng& rng) {
  return static_cast<uint16_t>(32768 + rng.uniform(28000));
}

uint16_t next_ephemeral(uint16_t& port) {
  port = static_cast<uint16_t>(port + 1);
  if (port < 32768) port = 32768;
  return port;
}

class FrameWriter {
 public:
  FrameWriter(Input& in, size_t frames) : in_(in) {
    in_.bytes.reserve(frames * kFrameBytes);
    in_.in_port.reserve(frames);
    in_.burst_end.reserve(frames / kBurst + 64);
  }

  void add(const ovs::RawFrame& f, uint32_t port) {
    if (f.size() > kFrameBytes)
      throw std::logic_error("perfbench: generated frame exceeds 64 bytes");
    const size_t off = in_.bytes.size();
    in_.bytes.resize(off + kFrameBytes, 0);  // zero pad, as on the wire
    std::memcpy(in_.bytes.data() + off, f.data(), f.size());
    in_.in_port.push_back(port);
  }
  void end_burst() {
    if (in_.burst_end.empty() ? in_.frames() > 0
                              : in_.burst_end.back() < in_.frames())
      in_.burst_end.push_back(static_cast<uint32_t>(in_.frames()));
  }

 private:
  Input& in_;
};

ovs::RawFrame tcp_frame(EthAddr src_mac, EthAddr dst_mac, Ipv4 src_ip,
                        Ipv4 dst_ip, uint16_t sport, uint16_t dport,
                        uint16_t flags, uint16_t payload) {
  ovs::TcpParams p;
  p.eth_src = src_mac;
  p.eth_dst = dst_mac;
  p.ip_src = src_ip;
  p.ip_dst = dst_ip;
  p.sport = sport;
  p.dport = dport;
  p.flags = flags;
  p.payload_len = payload;
  return ovs::build_tcp_ipv4(p);
}

// One CRR transaction's 8 frames in wire order (connect, 1-byte request,
// 1-byte response, disconnect), as TcpCrrWorkload::next_transaction.
struct Endpoint {
  uint32_t port;
  EthAddr mac;
  Ipv4 ip;
};

constexpr uint16_t kSyn = 0x002, kAck = 0x010, kPshAck = 0x018,
                   kFinAck = 0x011, kSynAck = kSyn | kAck;

struct CrrFrame {
  ovs::RawFrame bytes;
  uint32_t port;
};

void crr_transaction(const Endpoint& c, const Endpoint& s, uint16_t eph,
                     uint16_t svc, CrrFrame out[8]) {
  auto c2s = [&](uint16_t flags, uint16_t payload) {
    return CrrFrame{tcp_frame(c.mac, s.mac, c.ip, s.ip, eph, svc, flags,
                              payload),
                    c.port};
  };
  auto s2c = [&](uint16_t flags, uint16_t payload) {
    return CrrFrame{tcp_frame(s.mac, c.mac, s.ip, c.ip, svc, eph, flags,
                              payload),
                    s.port};
  };
  out[0] = c2s(kSyn, 0);
  out[1] = s2c(kSynAck, 0);
  out[2] = c2s(kAck, 0);
  out[3] = c2s(kPshAck, 1);
  out[4] = s2c(kPshAck, 1);
  out[5] = c2s(kFinAck, 0);
  out[6] = s2c(kFinAck, 0);
  out[7] = c2s(kAck, 0);
}

// Interleaves a group of transactions onto the wire the way
// run_crr_experiment does with rx_batch > 1: burst k carries frame k of every
// transaction in the group, so each connection stays a serial exchange.
void emit_crr_group(FrameWriter& b,
                    const std::vector<std::array<CrrFrame, 8>>& g) {
  for (size_t k = 0; k < 8; ++k) {
    for (const auto& txn : g) b.add(txn[k].bytes, txn[k].port);
    b.end_burst();
  }
}

ovs::NvpTopology nvp_topology(Kind kind) {
  // Same construction as build_switch, on a throwaway switch: the topology
  // (ports, MACs, IPs) is a pure function of the NvpConfig.
  ovs::Switch throwaway;
  return ovs::install_nvp_pipeline(throwaway, nvp_config(kind));
}

Endpoint endpoint(const ovs::NvpVm& vm) { return {vm.port, vm.mac, vm.ip}; }

// Two distinct VMs of one uniformly chosen tenant.
std::pair<const ovs::NvpVm*, const ovs::NvpVm*> vm_pair(
    const ovs::NvpTopology& topo, size_t n_tenants, size_t vms_per_tenant,
    ovs::Rng& rng) {
  const size_t t = rng.uniform(n_tenants);
  const size_t a = rng.uniform(vms_per_tenant);
  size_t b = rng.uniform(vms_per_tenant - 1);
  if (b >= a) ++b;
  return {&topo.vms[t * vms_per_tenant + a], &topo.vms[t * vms_per_tenant + b]};
}

// ~20k long-lived connections between same-tenant VMs; each frame picks a
// connection by Zipf(1.0) popularity and carries a data segment on it.
void gen_zipf_fwd(const Workload& w, ovs::Rng& rng, FrameWriter& b) {
  constexpr size_t kConns = 20000;
  const ovs::NvpConfig nc = nvp_config(w.kind);
  const ovs::NvpTopology topo = nvp_topology(w.kind);
  std::vector<ovs::RawFrame> conns;
  std::vector<uint32_t> ports;
  std::unordered_set<uint64_t> seen;
  while (conns.size() < kConns) {
    auto [src, dst] = vm_pair(topo, nc.n_tenants, nc.vms_per_tenant, rng);
    const uint16_t sport = ephemeral_start(rng);
    const uint16_t dport = service_port(rng);
    const uint64_t id = (uint64_t{src->port} << 48) |
                        (uint64_t{dst->port} << 32) |
                        (uint64_t{sport} << 16) | dport;
    if (!seen.insert(id).second) continue;
    conns.push_back(tcp_frame(src->mac, dst->mac, src->ip, dst->ip, sport,
                              dport, kAck, 0));
    ports.push_back(src->port);
  }
  const ovs::SkewSampler zipf(kConns, 1.0);
  for (size_t i = 0; i < w.frames_per_pass; ++i) {
    const size_t c = zipf.sample(rng);
    b.add(conns[c], ports[c]);
    if ((i + 1) % kBurst == 0) b.end_burst();
  }
  b.end_burst();
}

// §7.2 TCP_CRR against the 4-flow table: 400 sessions from 10.1.0.1 (port
// 1) to 9.1.1.2:9000 (port 2), each transaction on a fresh ephemeral port,
// plus an ARP refresh and an ICMP ping every 256 transactions.
void gen_crr_paper(const Workload& w, ovs::Rng& rng, FrameWriter& b) {
  constexpr size_t kSessions = 400;
  const Endpoint client{1, EthAddr(0x02, 0, 0, 0, 0, 1), Ipv4(10, 1, 0, 1)};
  const Endpoint server{2, EthAddr(0x02, 0, 0, 0, 0, 2), Ipv4(9, 1, 1, 2)};
  std::vector<uint16_t> next_port(kSessions);
  for (uint16_t& p : next_port) p = ephemeral_start(rng);

  ovs::ArpParams arp;
  arp.eth_src = client.mac;
  arp.spa = client.ip;
  arp.tpa = server.ip;
  const ovs::RawFrame arp_frame = ovs::build_arp(arp);
  ovs::IcmpParams ping;
  ping.eth_src = server.mac;
  ping.eth_dst = client.mac;
  ping.ip_src = server.ip;
  ping.ip_dst = client.ip;
  const ovs::RawFrame ping_frame = ovs::build_icmp_ipv4(ping);

  std::vector<std::array<CrrFrame, 8>> group(kBurst);
  size_t session = 0;
  uint64_t txns = 0;
  size_t frames = 0;
  while (frames < w.frames_per_pass) {
    if (txns % 256 == 0) {
      b.add(arp_frame, client.port);
      b.add(ping_frame, server.port);
      b.end_burst();
      frames += 2;
    }
    for (auto& txn : group) {
      crr_transaction(client, server, next_ephemeral(next_port[session]),
                      9000, txn.data());
      session = (session + 1) % kSessions;
    }
    emit_crr_group(b, group);
    txns += group.size();
    frames += group.size() * 8;
  }
}

// CRR-shaped connections between same-tenant VMs of the stateful NVP
// pipeline: a fresh ephemeral port per connection (per-client counters),
// 32 connections interleaved per group of 8 bursts.
void gen_crr_stateful(const Workload& w, ovs::Rng& rng, FrameWriter& b) {
  const ovs::NvpConfig nc = nvp_config(w.kind);
  const ovs::NvpTopology topo = nvp_topology(w.kind);
  std::vector<uint16_t> next_port(topo.vms.size());
  for (uint16_t& p : next_port) p = ephemeral_start(rng);

  std::vector<std::array<CrrFrame, 8>> group(kBurst);
  size_t frames = 0;
  while (frames < w.frames_per_pass) {
    for (auto& txn : group) {
      auto [c, s] = vm_pair(topo, nc.n_tenants, nc.vms_per_tenant, rng);
      const size_t ci = static_cast<size_t>(c - topo.vms.data());
      crr_transaction(endpoint(*c), endpoint(*s),
                      next_ephemeral(next_port[ci]), service_port(rng),
                      txn.data());
    }
    emit_crr_group(b, group);
    frames += group.size() * 8;
  }
}

}  // namespace

// A pass is sized to ~0.2-0.3 s of wall time on the fast-path workloads, so a
// run holds dozens of passes. crr_stateful runs 5.2 virtual seconds: its
// megaflows climb past the default 200k flow limit, and the 5th maintenance
// pass purges them with the §6 overflow idle timeout (its idle deletes).
const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {Kind::kZipfFwd, "zipf_fwd", 1000, 1u << 20},
      {Kind::kCrrPaper, "crr_paper", 1000, 1u << 20},
      {Kind::kCrrStateful, "crr_stateful", 10000, 1u << 19},
  };
  return kAll;
}

std::optional<Workload> find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (name == w.name) return w;
  return std::nullopt;
}

std::unique_ptr<ovs::Switch> build_switch(const Workload& w) {
  // Default-configured switch: one thread, default classifier, caches,
  // flow limit and revalidation mode.
  auto sw = std::make_unique<ovs::Switch>(ovs::SwitchConfig{});
  if (w.kind == Kind::kCrrPaper) {
    sw->add_port(1);
    sw->add_port(2);
    ovs::install_paper_microbench_table(*sw, 2);
  } else {
    ovs::install_nvp_pipeline(*sw, nvp_config(w.kind));
  }
  return sw;
}

Input generate_input(const Workload& w, uint64_t seed) {
  Input in;
  FrameWriter b(in, w.frames_per_pass + 4 * kBurst * 8);
  ovs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL);
  switch (w.kind) {
    case Kind::kZipfFwd: gen_zipf_fwd(w, rng, b); break;
    case Kind::kCrrPaper: gen_crr_paper(w, rng, b); break;
    case Kind::kCrrStateful: gen_crr_stateful(w, rng, b); break;
  }
  return in;
}

}  // namespace perfbench
