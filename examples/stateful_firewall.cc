// Stateful firewalling with the connection-tracking action (§8.1): allow
// outbound connections from the protected side, allow replies, drop
// unsolicited inbound traffic — without involving a controller per packet.
//
// Run: build/examples/example_stateful_firewall
#include <cstdio>

#include "sim/clock.h"
#include "vswitchd/switch.h"

using namespace ovs;

namespace {

Packet tcp(uint32_t in_port, Ipv4 src, Ipv4 dst, uint16_t sport,
           uint16_t dport) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(EthAddr(0x02, 0, 0, 0, 0, (uint8_t)in_port));
  p.key.set_eth_dst(EthAddr(0x02, 0, 0, 0, 0, 0x42));
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(src);
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  return p;
}

}  // namespace

int main() {
  // Port 1 = inside (protected), port 2 = outside.
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);

  // Table 0: all IP traffic goes through conntrack, then table 1 decides.
  sw.table(0).add_flow(MatchBuilder().ip(), 10, OfActions().ct(1));
  // Table 1 policy:
  //   new connections from inside: commit and allow out;
  sw.table(1).add_flow(MatchBuilder().in_port(1).ct_state(ct_state::kNew),
                       30, OfActions().ct(1, /*commit=*/true));
  //   established traffic in either direction: allow;
  sw.table(1).add_flow(
      MatchBuilder().in_port(1).ct_state(ct_state::kEstablished), 20,
      OfActions().output(2));
  sw.table(1).add_flow(
      MatchBuilder().in_port(2).ct_state(ct_state::kEstablished |
                                         ct_state::kReply),
      20, OfActions().output(1));
  //   everything else (unsolicited inbound): drop. (Table miss drops.)

  VirtualClock clock;
  const Ipv4 inside(10, 0, 0, 5);
  const Ipv4 outside(93, 184, 216, 34);

  auto attempt = [&](const char* what, const Packet& p, uint32_t out_port) {
    const uint64_t before = sw.port_stats(out_port).tx_packets;
    sw.inject(p, clock.now());
    sw.handle_upcalls(clock.now());
    const bool delivered = sw.port_stats(out_port).tx_packets > before;
    std::printf("%-52s %s\n", what, delivered ? "DELIVERED" : "dropped");
  };

  std::printf("policy: inside may open connections; outside may only "
              "reply\n\n");
  attempt("inside  -> outside, SYN (new, commits)",
          tcp(1, inside, outside, 40000, 443), 2);
  attempt("outside -> inside, reply on that connection",
          tcp(2, outside, inside, 443, 40000), 1);
  attempt("inside  -> outside, more data",
          tcp(1, inside, outside, 40000, 443), 2);
  attempt("outside -> inside, unsolicited SSH probe",
          tcp(2, outside, inside, 55555, 22), 1);
  attempt("outside -> inside, spoofed 'reply' on a dead port",
          tcp(2, outside, inside, 443, 41111), 1);

  std::printf("\nconnections tracked: %zu\n", sw.pipeline().conntrack().size());
  std::printf("megaflows installed (per-connection, as ct requires):\n");
  for (Datapath::FlowRef f : sw.backend().dump())
    std::printf("  %-7s %s\n",
                sw.backend().flow_actions(f).drops() ? "[drop]" : "[allow]",
                sw.backend().flow_match(f).key.to_string().c_str());
  return 0;
}
