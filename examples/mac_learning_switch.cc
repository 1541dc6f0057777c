// A plain L2 learning switch built from the NORMAL action — plus the cache
// invalidation story of §6: when a VM migrates (its MAC moves to another
// port), the revalidators repair every cached flow that depended on the old
// binding, without traffic interruption beyond one maintenance round.
//
// Run: build/examples/example_mac_learning_switch
#include <cstdio>

#include "sim/clock.h"
#include "vswitchd/switch.h"

using namespace ovs;

namespace {

Packet frame(uint32_t in_port, EthAddr src, EthAddr dst) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(src);
  p.key.set_eth_dst(dst);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kUdp);
  p.key.set_nw_src(Ipv4(10, 0, 0, 1));
  p.key.set_nw_dst(Ipv4(10, 0, 0, 2));
  p.key.set_tp_src(1111);
  p.key.set_tp_dst(2222);
  return p;
}

}  // namespace

int main() {
  Switch sw;
  for (uint32_t p = 1; p <= 4; ++p) sw.add_port(p);
  sw.table(0).add_flow(Match{}, 0, OfActions().normal());

  const EthAddr host_a(0x02, 0, 0, 0, 0, 0xaa);
  const EthAddr host_b(0x02, 0, 0, 0, 0, 0xbb);
  VirtualClock clock;

  // First frame from A: destination unknown -> flooded; A learned @ port 1.
  std::printf("A(port1) -> B: ");
  sw.inject(frame(1, host_a, host_b), clock.now());
  sw.handle_upcalls(clock.now());
  std::printf("flooded to %llu ports (B unknown)\n",
              (unsigned long long)sw.counters().tx_packets);

  // B answers from port 2: unicast back to A; B learned @ port 2.
  sw.inject(frame(2, host_b, host_a), clock.now());
  sw.handle_upcalls(clock.now());

  // Now A->B is unicast and cached.
  for (int i = 0; i < 3; ++i) {
    sw.inject(frame(1, host_a, host_b), clock.now());
    sw.handle_upcalls(clock.now());
  }
  std::printf("A -> B steady state: port2 tx=%llu, %zu megaflows, MAC table "
              "%zu entries\n",
              (unsigned long long)sw.port_stats(2).tx_packets,
              sw.backend().flow_count(), sw.pipeline().mac_learning().size());

  // B migrates to port 4 and announces itself (gratuitous frame).
  std::printf("\nB migrates from port 2 to port 4...\n");
  clock.advance(kSecond);
  sw.inject(frame(4, host_b, kEthBroadcast), clock.now());
  sw.handle_upcalls(clock.now());
  sw.run_maintenance(clock.now());  // revalidators repair cached flows (§6)
  std::printf("maintenance: %llu cached flows had their actions updated\n",
              (unsigned long long)sw.counters().reval_updated_actions);

  const uint64_t p2 = sw.port_stats(2).tx_packets;
  const uint64_t p4 = sw.port_stats(4).tx_packets;
  sw.inject(frame(1, host_a, host_b), clock.now());
  sw.handle_upcalls(clock.now());
  std::printf("A -> B after migration: port2 +%llu, port4 +%llu "
              "(traffic follows the VM)\n",
              (unsigned long long)(sw.port_stats(2).tx_packets - p2),
              (unsigned long long)(sw.port_stats(4).tx_packets - p4));

  // Idle aging: stop talking and the cache drains.
  clock.advance(15 * kSecond);
  sw.run_maintenance(clock.now());
  std::printf("\nafter 15 idle seconds: %zu megaflows (idle-evicted, §6)\n",
              sw.backend().flow_count());
  return 0;
}
