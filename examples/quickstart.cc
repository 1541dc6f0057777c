// Quickstart: program a switch, push packets, watch the two-level cache
// work. Run: build/examples/example_quickstart
#include <cstdio>

#include "sim/clock.h"
#include "vswitchd/switch.h"

using namespace ovs;

namespace {

Packet make_tcp(uint32_t in_port, Ipv4 src, Ipv4 dst, uint16_t sport,
                uint16_t dport) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(EthAddr(0x02, 0, 0, 0, 0, 1));
  p.key.set_eth_dst(EthAddr(0x02, 0, 0, 0, 0, 2));
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(src);
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 200;
  return p;
}

const char* path_name(Datapath::Path p) {
  switch (p) {
    case Datapath::Path::kOffloadHit:
      return "NIC offload hit";
    case Datapath::Path::kMicroflowHit:
      return "microflow (EMC) hit";
    case Datapath::Path::kMegaflowHit:
      return "megaflow hit";
    case Datapath::Path::kMiss:
      return "miss -> upcall to userspace";
  }
  return "?";
}

}  // namespace

int main() {
  // 1. Build a switch with two ports.
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  sw.set_output_handler([](uint32_t port, const Packet& pkt) {
    std::printf("    -> transmitted on port %u (%s)\n", port,
                pkt.key.to_string().c_str());
  });

  // 2. Program OpenFlow table 0: route 10/8 out of port 2, ARP flooded.
  sw.table(0).add_flow(
      MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 10,
      OfActions().output(2));
  sw.table(0).add_flow(MatchBuilder().arp(), 20, OfActions().normal());

  VirtualClock clock;

  // 3. First packet of a connection: datapath miss, flow setup, forward.
  Packet p1 = make_tcp(1, Ipv4(192, 168, 0, 5), Ipv4(10, 1, 2, 3), 40000, 80);
  std::printf("packet 1: %s\n", path_name(sw.inject(p1, clock.now())));
  sw.handle_upcalls(clock.now());
  std::printf("  userspace translated the miss and installed a megaflow:\n");
  for (Datapath::FlowRef f : sw.backend().dump())
    std::printf("    megaflow{%s} actions=%s\n",
                sw.backend().flow_match(f).mask.to_string().c_str(),
                sw.backend().flow_actions(f).to_string().c_str());

  // 4. Second packet of the same connection: kernel megaflow hit.
  std::printf("packet 2: %s\n", path_name(sw.inject(p1, clock.now())));
  // 5. Third: exact-match microflow cache hit.
  std::printf("packet 3: %s\n", path_name(sw.inject(p1, clock.now())));

  // 6. A *different* connection to a different 10/8 host still hits the
  // same megaflow — this is the point of caching-aware classification:
  // the megaflow matched only the consulted bits (eth_type + 8 dst bits).
  Packet p2 = make_tcp(1, Ipv4(192, 168, 0, 9), Ipv4(10, 9, 9, 9), 51515, 443);
  std::printf("packet 4 (new connection): %s\n",
              path_name(sw.inject(p2, clock.now())));

  // 7. Stats.
  const auto& dp = sw.backend().stats();
  std::printf("\ndatapath: %llu packets, %llu EMC hits, %llu megaflow hits, "
              "%llu misses; %zu flows, %zu masks\n",
              (unsigned long long)dp.packets,
              (unsigned long long)dp.microflow_hits,
              (unsigned long long)dp.megaflow_hits,
              (unsigned long long)dp.misses, sw.backend().flow_count(),
              sw.backend().mask_count());
  std::printf("port 2 tx: %llu packets\n",
              (unsigned long long)sw.port_stats(2).tx_packets);

  // 8. Maintenance: after 10 idle seconds the revalidators evict the flow.
  clock.advance(11 * kSecond);
  sw.run_maintenance(clock.now());
  std::printf("after 11 idle seconds: %zu flows in the datapath\n",
              sw.backend().flow_count());
  return 0;
}
