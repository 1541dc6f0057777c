// Integration tests: the full Switch — pipeline + datapath + upcall handling
// + revalidation (§3.1, §4, §6).
#include "vswitchd/switch.h"

#include <gtest/gtest.h>

#include "sim/clock.h"

namespace ovs {
namespace {

Packet tcp_pkt(uint32_t in_port, Ipv4 src, Ipv4 dst, uint16_t sport,
               uint16_t dport) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(EthAddr(0, 0, 0, 0, 0, (uint8_t)in_port));
  p.key.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0x99));
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(src);
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 100;
  return p;
}

class SwitchTest : public ::testing::Test {
 protected:
  void setup_l3_switch(SwitchConfig cfg = {}) {
    sw_ = std::make_unique<Switch>(cfg);
    sw_->add_port(1);
    sw_->add_port(2);
    sw_->table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 10,
        OfActions().output(2));
    sw_->table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(20, 0, 0, 0), 8), 10,
        OfActions().output(1));
  }

  std::unique_ptr<Switch> sw_;
  VirtualClock clock_;
};

TEST_F(SwitchTest, MissThenSetupThenCacheHits) {
  setup_l3_switch();
  Packet p = tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 1000, 80);

  EXPECT_EQ(sw_->inject(p, clock_.now()), Datapath::Path::kMiss);
  EXPECT_EQ(sw_->handle_upcalls(clock_.now()), 1u);
  EXPECT_EQ(sw_->counters().flow_setups, 1u);
  // The queued packet was forwarded as part of setup.
  EXPECT_EQ(sw_->port_stats(2).tx_packets, 1u);

  // The first packet after setup passes through the megaflow table, which
  // populates the EMC (§4.2); the next one is an EMC hit.
  EXPECT_EQ(sw_->inject(p, clock_.now()), Datapath::Path::kMegaflowHit);
  EXPECT_EQ(sw_->inject(p, clock_.now()), Datapath::Path::kMicroflowHit);
  // Different connection, same /8: megaflow hit, no new upcall.
  Packet p2 = tcp_pkt(1, Ipv4(1, 1, 1, 2), Ipv4(10, 9, 9, 9), 2222, 443);
  EXPECT_EQ(sw_->inject(p2, clock_.now()), Datapath::Path::kMegaflowHit);
  EXPECT_EQ(sw_->handle_upcalls(clock_.now()), 0u);
  EXPECT_EQ(sw_->port_stats(2).tx_packets, 4u);
  EXPECT_EQ(sw_->backend().flow_count(), 1u);  // one megaflow covers all
}

TEST_F(SwitchTest, OutputHandlerObservesForwarding) {
  setup_l3_switch();
  std::vector<std::pair<uint32_t, Ipv4>> seen;
  sw_->set_output_handler([&](uint32_t port, const Packet& pkt) {
    seen.emplace_back(port, pkt.key.nw_dst());
  });
  Packet p = tcp_pkt(2, Ipv4(1, 1, 1, 1), Ipv4(20, 0, 0, 7), 1, 2);
  sw_->inject(p, 0);
  sw_->handle_upcalls(0);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 1u);
  EXPECT_EQ(seen[0].second, Ipv4(20, 0, 0, 7));
}

TEST_F(SwitchTest, MegaflowsDisabledInstallsExactEntries) {
  SwitchConfig cfg;
  cfg.megaflows_enabled = false;  // Table 1's first row
  setup_l3_switch(cfg);
  for (uint16_t i = 0; i < 10; ++i) {
    sw_->inject(tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 1000 + i, 80),
                0);
    sw_->handle_upcalls(0);
  }
  // One cache entry per connection, one mask ("Flows"=N, "Masks"=1).
  EXPECT_EQ(sw_->backend().flow_count(), 10u);
  EXPECT_EQ(sw_->backend().mask_count(), 1u);
  // A fresh connection always misses.
  EXPECT_EQ(
      sw_->inject(tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 7777, 80),
                  0),
      Datapath::Path::kMiss);
}

TEST_F(SwitchTest, IdleFlowsEvictedByRevalidator) {
  setup_l3_switch();
  sw_->inject(tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 1, 2), 0);
  sw_->handle_upcalls(0);
  EXPECT_EQ(sw_->backend().flow_count(), 1u);

  // Before the idle timeout: kept.
  clock_.advance(5 * kSecond);
  sw_->run_maintenance(clock_.now());
  EXPECT_EQ(sw_->backend().flow_count(), 1u);

  // Past the 10 s idle timeout: evicted.
  clock_.advance(6 * kSecond);
  sw_->run_maintenance(clock_.now());
  EXPECT_EQ(sw_->backend().flow_count(), 0u);
  EXPECT_EQ(sw_->counters().reval_deleted_idle, 1u);
}

TEST_F(SwitchTest, TrafficKeepsFlowsAlive) {
  setup_l3_switch();
  Packet p = tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 1, 2);
  sw_->inject(p, 0);
  sw_->handle_upcalls(0);
  for (int i = 1; i <= 30; ++i) {
    clock_.advance(1 * kSecond);
    sw_->inject(p, clock_.now());
    sw_->run_maintenance(clock_.now());
    EXPECT_EQ(sw_->backend().flow_count(), 1u) << "second " << i;
  }
}

TEST_F(SwitchTest, FlowTableChangeUpdatesCachedActions) {
  setup_l3_switch();
  sw_->add_port(3);
  Packet p = tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 1, 2);
  sw_->inject(p, 0);
  sw_->handle_upcalls(0);
  EXPECT_EQ(sw_->inject(p, 0), Datapath::Path::kMegaflowHit);
  EXPECT_EQ(sw_->port_stats(2).tx_packets, 2u);

  // Repoint the /8 toward port 3 (e.g. a VM migrated).
  sw_->table(0).add_flow(
      MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 10,
      OfActions().output(3));
  clock_.advance(kSecond);
  sw_->run_maintenance(clock_.now());
  EXPECT_EQ(sw_->counters().reval_updated_actions, 1u);

  sw_->inject(p, clock_.now());
  EXPECT_EQ(sw_->port_stats(3).tx_packets, 1u);  // now out port 3
}

TEST_F(SwitchTest, FlowDeletionInvalidatesCache) {
  setup_l3_switch();
  Packet p = tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 1, 2);
  sw_->inject(p, 0);
  sw_->handle_upcalls(0);

  sw_->table(0).delete_flow(
      MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 10);
  clock_.advance(kSecond);
  sw_->run_maintenance(clock_.now());
  // The re-translation now misses (different wildcards): flow removed.
  EXPECT_EQ(sw_->backend().flow_count(), 0u);
  EXPECT_EQ(sw_->inject(p, clock_.now()), Datapath::Path::kMiss);
}

TEST_F(SwitchTest, FlowLimitEnforced) {
  SwitchConfig cfg;
  cfg.flow_limit = 50;
  cfg.dynamic_flow_limit = false;
  cfg.megaflows_enabled = false;  // force one entry per connection
  setup_l3_switch(cfg);
  for (uint16_t i = 0; i < 200; ++i) {
    sw_->inject(
        tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), (uint16_t)(100 + i),
                80),
        clock_.now());
    sw_->handle_upcalls(clock_.now());
    clock_.advance(kMillisecond);
  }
  EXPECT_EQ(sw_->backend().flow_count(), 200u);
  sw_->run_maintenance(clock_.now());
  EXPECT_LE(sw_->backend().flow_count(), 50u);
  EXPECT_GT(sw_->counters().evicted_flow_limit, 0u);
}

TEST_F(SwitchTest, DynamicFlowLimitTracksRevalidationBudget) {
  SwitchConfig cfg;
  cfg.flow_limit = 200000;
  cfg.max_revalidation_ns = 1 * kSecond;
  cfg.cost.reval_per_flow = 20000;  // pretend revalidation is expensive
  cfg.cost.ghz = 2.0;
  setup_l3_switch(cfg);
  sw_->run_maintenance(clock_.now());
  // Budget: 2e9 cycles/s / 20000 = 100k flows < configured 200k.
  EXPECT_EQ(sw_->effective_flow_limit(), 100000u);
}

TEST_F(SwitchTest, MacMoveRevalidatesNormalFlows) {
  SwitchConfig cfg;
  std::unique_ptr<Switch>& sw = sw_;
  sw = std::make_unique<Switch>(cfg);
  sw->add_port(1);
  sw->add_port(2);
  sw->add_port(3);
  sw->table(0).add_flow(Match{}, 0, OfActions().normal());

  // Host A (port 1) talks to host B; B was learned on port 2.
  Packet from_b = tcp_pkt(2, Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 2, 1);
  from_b.key.set_eth_src(EthAddr(0, 0, 0, 0, 0, 0xbb));
  from_b.key.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0xaa));
  sw->inject(from_b, 0);
  sw->handle_upcalls(0);

  Packet to_b = tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  to_b.key.set_eth_src(EthAddr(0, 0, 0, 0, 0, 0xaa));
  to_b.key.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0xbb));
  sw->inject(to_b, 0);
  sw->handle_upcalls(0);
  EXPECT_EQ(sw->port_stats(2).tx_packets, 1u);

  // B migrates to port 3 and sends traffic (gratuitous frame).
  Packet from_b3 = from_b;
  from_b3.key.set_in_port(3);
  clock_.advance(kSecond);
  sw->inject(from_b3, clock_.now());
  sw->handle_upcalls(clock_.now());
  sw->run_maintenance(clock_.now());

  // Traffic to B must now exit port 3 (cached flow updated, not stale).
  const uint64_t p3_before = sw->port_stats(3).tx_packets;
  const uint64_t p2_before = sw->port_stats(2).tx_packets;
  sw->inject(to_b, clock_.now());
  sw->handle_upcalls(clock_.now());
  EXPECT_EQ(sw->port_stats(3).tx_packets, p3_before + 1);
  EXPECT_EQ(sw->port_stats(2).tx_packets, p2_before);  // unchanged
}

TEST_F(SwitchTest, TagModeSkipsUnrelatedFlows) {
  SwitchConfig cfg;
  cfg.reval_mode = RevalidationMode::kTags;
  sw_ = std::make_unique<Switch>(cfg);
  sw_->add_port(1);
  sw_->add_port(2);
  sw_->table(0).add_flow(Match{}, 0, OfActions().normal());

  // Set up flows for several distinct MAC pairs.
  for (uint8_t i = 0; i < 8; ++i) {
    Packet p = tcp_pkt(1, Ipv4(1, 1, 1, i), Ipv4(2, 2, 2, i), 1, 2);
    p.key.set_eth_src(EthAddr(0, 0, 0, 0, 1, i));
    p.key.set_eth_dst(EthAddr(0, 0, 0, 0, 2, i));
    sw_->inject(p, 0);
    sw_->handle_upcalls(0);
  }
  sw_->run_maintenance(clock_.now());  // absorb initial learning churn

  // Move ONE binding; tag mode should skip most unrelated flows.
  Packet mover = tcp_pkt(2, Ipv4(9, 9, 9, 9), Ipv4(1, 1, 1, 0), 9, 9);
  mover.key.set_eth_src(EthAddr(0, 0, 0, 0, 1, 0));  // MAC of host 0 moved
  mover.key.set_eth_dst(EthAddr(0, 0, 0, 0, 9, 9));
  clock_.advance(kSecond);
  sw_->inject(mover, clock_.now());
  sw_->handle_upcalls(clock_.now());
  sw_->run_maintenance(clock_.now());
  EXPECT_GT(sw_->counters().reval_skipped_by_tags, 0u);
}

TEST_F(SwitchTest, ControllerActionCounted) {
  SwitchConfig cfg;
  setup_l3_switch(cfg);
  sw_->table(0).add_flow(MatchBuilder().arp(), 100,
                         OfActions().controller());
  Packet arp;
  arp.key.set_in_port(1);
  arp.key.set_eth_type(ethertype::kArp);
  arp.key.set_arp_op(1);
  sw_->inject(arp, 0);
  sw_->handle_upcalls(0);
  EXPECT_EQ(sw_->counters().to_controller, 1u);
}

TEST_F(SwitchTest, CpuAccountingAccumulates) {
  setup_l3_switch();
  EXPECT_EQ(sw_->cpu().kernel_cycles, 0.0);
  Packet p = tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, 5), 1, 2);
  sw_->inject(p, 0);
  const double k1 = sw_->cpu().kernel_cycles;
  EXPECT_GT(k1, 0.0);
  sw_->handle_upcalls(0);
  EXPECT_GT(sw_->cpu().user_cycles, 0.0);
  // A cache hit charges fewer kernel cycles than the miss did.
  const double before = sw_->cpu().kernel_cycles;
  sw_->inject(p, 0);
  EXPECT_LT(sw_->cpu().kernel_cycles - before, k1);
}

TEST_F(SwitchTest, UpcallBatchingChargesFewerCycles) {
  SwitchConfig batched;
  SwitchConfig unbatched;
  unbatched.batching = false;
  for (SwitchConfig* c : {&batched, &unbatched}) c->n_tables = 1;

  double user[2];
  int idx = 0;
  for (SwitchConfig* c : {&batched, &unbatched}) {
    Switch sw(*c);
    sw.add_port(1);
    sw.add_port(2);
    sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));
    for (uint16_t i = 0; i < 32; ++i)
      sw.inject(tcp_pkt(1, Ipv4(1, 1, 1, 1), Ipv4(10, 0, 0, (uint8_t)i),
                        (uint16_t)(100 + i), 80),
                0);
    sw.handle_upcalls(0);
    user[idx++] = sw.cpu().user_cycles;
  }
  EXPECT_LT(user[0], user[1]);  // batching amortizes the syscall cost
}

}  // namespace
}  // namespace ovs
