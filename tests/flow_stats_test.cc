// Tests for OpenFlow per-flow statistics and flow timeouts (§6): stats are
// pushed from datapath flow counters during the periodic poll, so they lag
// by up to a poll period but converge exactly.
#include <gtest/gtest.h>

#include "sim/clock.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

Packet pkt_to(Ipv4 dst, uint16_t dport, uint32_t size = 100) {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(1, 1, 1, 1));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(40000);
  p.key.set_tp_dst(dport);
  p.size_bytes = size;
  return p;
}

SwitchConfig with_workers(size_t workers) {
  SwitchConfig cfg;
  cfg.datapath_workers = workers;
  return cfg;
}

// Every case runs with one datapath worker (FlowStatsTest) and with four
// (ShardedFlowStatsTest), whose flow counters sum four replicas. The case
// bodies are fixture members shared by the two.
class FlowStatsFixture : public ::testing::Test {
 protected:
  explicit FlowStatsFixture(size_t workers) : sw_(with_workers(workers)) {}
  void SetUp() override {
    sw_.add_port(1);
    sw_.add_port(2);
  }
  const OfRule* find_rule(size_t table, const Match& m, int prio) {
    return static_cast<const OfRule*>(
        sw_.table(table).classifier().find_exact(m, prio));
  }

  void StatsAttributedAfterPoll();
  void StatsAccumulateAcrossPolls();
  void MultiTableAttribution();
  void StatsSurviveFlowEviction();
  void StatsSurviveStaleDeletion();
  void IdleTimeoutExpiresRule();
  void HardTimeoutExpiresRegardlessOfTraffic();
  void RuleReplacementResetsAttribution();

  Switch sw_;
  VirtualClock clock_;
};

class FlowStatsTest : public FlowStatsFixture {
 protected:
  FlowStatsTest() : FlowStatsFixture(0) {}
};

class ShardedFlowStatsTest : public FlowStatsFixture {
 protected:
  ShardedFlowStatsTest() : FlowStatsFixture(4) {}
};

#define FLOW_STATS_TEST(name)                      \
  TEST_F(FlowStatsTest, name) { name(); }          \
  TEST_F(ShardedFlowStatsTest, name) { name(); }   \
  void FlowStatsFixture::name()

FLOW_STATS_TEST(StatsAttributedAfterPoll) {
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8);
  sw_.table(0).add_flow(m, 10, OfActions().output(2));
  const OfRule* rule = find_rule(0, m, 10);
  ASSERT_NE(rule, nullptr);

  for (int i = 0; i < 5; ++i) {
    sw_.inject(pkt_to(Ipv4(10, 0, 0, 1), 80, 150), clock_.now());
    sw_.handle_upcalls(clock_.now());
  }
  // Stats lag until the poll (§6: "OpenFlow statistics are themselves only
  // periodically updated").
  EXPECT_EQ(rule->packets(), 0u);
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());
  EXPECT_EQ(rule->packets(), 5u);
  EXPECT_EQ(rule->bytes(), 5u * 150);
}

FLOW_STATS_TEST(StatsAccumulateAcrossPolls) {
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8);
  sw_.table(0).add_flow(m, 10, OfActions().output(2));
  const OfRule* rule = find_rule(0, m, 10);
  for (int round = 1; round <= 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      sw_.inject(pkt_to(Ipv4(10, 0, 0, 2), 80), clock_.now());
      sw_.handle_upcalls(clock_.now());
    }
    clock_.advance(kSecond);
    sw_.run_maintenance(clock_.now());
    EXPECT_EQ(rule->packets(), static_cast<uint64_t>(4 * round));
  }
}

FLOW_STATS_TEST(MultiTableAttribution) {
  // A packet matching rules in two tables counts against both (OpenFlow
  // semantics: each traversed flow's counters tick).
  Match m0 = MatchBuilder().ip();
  Match m1 = MatchBuilder().reg(0, 7);
  sw_.table(0).add_flow(m0, 10, OfActions().set_reg(0, 7).resubmit(1));
  sw_.table(1).add_flow(m1, 10, OfActions().output(2));
  const OfRule* r0 = find_rule(0, m0, 10);
  const OfRule* r1 = find_rule(1, m1, 10);

  for (int i = 0; i < 3; ++i) {
    sw_.inject(pkt_to(Ipv4(5, 5, 5, 5), 80), clock_.now());
    sw_.handle_upcalls(clock_.now());
  }
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());
  EXPECT_EQ(r0->packets(), 3u);
  EXPECT_EQ(r1->packets(), 3u);
}

FLOW_STATS_TEST(StatsSurviveFlowEviction) {
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8);
  sw_.table(0).add_flow(m, 10, OfActions().output(2));
  const OfRule* rule = find_rule(0, m, 10);
  sw_.inject(pkt_to(Ipv4(10, 0, 0, 3), 80), clock_.now());
  sw_.handle_upcalls(clock_.now());
  // Let the megaflow idle out: its accumulated stats must be pushed during
  // the final poll, not lost.
  clock_.advance(11 * kSecond);
  sw_.run_maintenance(clock_.now());
  EXPECT_EQ(sw_.backend().flow_count(), 0u);
  EXPECT_EQ(rule->packets(), 1u);
}

FLOW_STATS_TEST(StatsSurviveStaleDeletion) {
  // A post-ct megaflow goes stale with no table change once no flow names
  // its recirculation: here its pre-ct flow leaves the datapath behind the
  // revalidator's back (as a datapath flush would). The next pass frees the
  // frozen state and deletes the post-ct flow as stale — and the packets it
  // carried since the last poll must still reach its rule, whose pointer
  // is still valid.
  ASSERT_EQ("", sw_.add_flow("priority=35, tcp, tp_dst=80, actions=ct(table=1)",
                             clock_.now()));
  ASSERT_EQ("", sw_.add_flow("table=1, priority=30, ct_state=1, "
                             "actions=output:2",
                             clock_.now()));
  const OfRule* fresh = find_rule(1, MatchBuilder().ct_state(1), 30);
  ASSERT_NE(fresh, nullptr);

  const Packet p = pkt_to(Ipv4(10, 0, 0, 7), 80, 120);
  sw_.inject(p, clock_.now());
  sw_.handle_upcalls(clock_.now());
  ASSERT_EQ(sw_.backend().flow_count(), 2u);
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());
  ASSERT_EQ(fresh->packets(), 1u);
  ASSERT_EQ(sw_.backend().flow_count(), 2u);

  for (int i = 0; i < 3; ++i) sw_.inject(p, clock_.now());
  for (Datapath::FlowRef f : sw_.backend().dump())
    if (sw_.backend().flow_full_key(f).recirc_id() == 0)
      sw_.backend().remove(f);
  sw_.backend().purge_dead();
  const uint64_t stale_before = sw_.counters().reval_deleted_stale;
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());
  EXPECT_EQ(sw_.counters().reval_deleted_stale, stale_before + 1);
  EXPECT_EQ(sw_.backend().flow_count(), 0u);
  EXPECT_EQ(fresh->packets(), 4u);
  EXPECT_EQ(fresh->bytes(), 4u * 120);
}

FLOW_STATS_TEST(IdleTimeoutExpiresRule) {
  ASSERT_EQ(sw_.add_flow("table=0, priority=10, ip, idle_timeout=5, "
                         "actions=output:2",
                         clock_.now()),
            "");
  ASSERT_EQ(sw_.table(0).flow_count(), 1u);

  // Traffic keeps it alive.
  for (int s = 0; s < 8; ++s) {
    sw_.inject(pkt_to(Ipv4(10, 0, 0, 4), 80), clock_.now());
    sw_.handle_upcalls(clock_.now());
    clock_.advance(kSecond);
    sw_.run_maintenance(clock_.now());
    ASSERT_EQ(sw_.table(0).flow_count(), 1u) << "second " << s;
  }
  // Silence expires it (after the last attributed use).
  for (int s = 0; s < 8 && sw_.table(0).flow_count() > 0; ++s) {
    clock_.advance(kSecond);
    sw_.run_maintenance(clock_.now());
  }
  EXPECT_EQ(sw_.table(0).flow_count(), 0u);
  // And the cache converges to the table-less behaviour: drop.
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());
  Packet p = pkt_to(Ipv4(10, 0, 0, 4), 80);
  sw_.inject(p, clock_.now());
  sw_.handle_upcalls(clock_.now());
  const uint64_t tx_before = sw_.port_stats(2).tx_packets;
  sw_.inject(p, clock_.now());
  EXPECT_EQ(sw_.port_stats(2).tx_packets, tx_before);
}

FLOW_STATS_TEST(HardTimeoutExpiresRegardlessOfTraffic) {
  ASSERT_EQ(sw_.add_flow("table=0, priority=10, ip, hard_timeout=3, "
                         "actions=output:2",
                         clock_.now()),
            "");
  for (int s = 0; s < 10 && sw_.table(0).flow_count() > 0; ++s) {
    sw_.inject(pkt_to(Ipv4(10, 0, 0, 5), 80), clock_.now());
    sw_.handle_upcalls(clock_.now());
    clock_.advance(kSecond);
    sw_.run_maintenance(clock_.now());
  }
  EXPECT_EQ(sw_.table(0).flow_count(), 0u);
}

FLOW_STATS_TEST(RuleReplacementResetsAttribution) {
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8);
  sw_.table(0).add_flow(m, 10, OfActions().output(2));
  sw_.inject(pkt_to(Ipv4(10, 0, 0, 6), 80), clock_.now());
  sw_.handle_upcalls(clock_.now());
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());

  // Replace the rule (same match+priority): new rule starts at zero and
  // future traffic counts against it, not the dead pointer.
  sw_.table(0).add_flow(m, 10, OfActions().output(2));
  const OfRule* fresh = find_rule(0, m, 10);
  EXPECT_EQ(fresh->packets(), 0u);
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());  // re-translates, refreshes attribution
  sw_.inject(pkt_to(Ipv4(10, 0, 0, 6), 80), clock_.now());
  sw_.handle_upcalls(clock_.now());
  clock_.advance(kSecond);
  sw_.run_maintenance(clock_.now());
  EXPECT_GE(fresh->packets(), 1u);
}

}  // namespace
}  // namespace ovs
