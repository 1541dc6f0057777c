// Tests for pipeline translation — the megaflow generator (§3.3, §4.2).
#include "ofproto/pipeline.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ovs {
namespace {

FlowKey tcp_key(uint32_t in_port, Ipv4 src, Ipv4 dst, uint16_t sport,
                uint16_t dport) {
  FlowKey k;
  k.set_in_port(in_port);
  k.set_eth_src(EthAddr(0, 0, 0, 0, 0, 1));
  k.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 2));
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kTcp);
  k.set_nw_src(src);
  k.set_nw_dst(dst);
  k.set_tp_src(sport);
  k.set_tp_dst(dport);
  return k;
}

TEST(PipelineTest, SingleTableOutput) {
  Pipeline p(1);
  p.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(7));
  auto xr = p.translate(tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4),
                        0);
  EXPECT_FALSE(xr.error);
  EXPECT_EQ(xr.actions.to_string(), "output:7");
  EXPECT_EQ(xr.table_lookups, 1u);
  // Megaflow matches eth_type (consulted) and in_port (always).
  EXPECT_TRUE(xr.megaflow.mask.is_exact(FieldId::kEthType));
  EXPECT_TRUE(xr.megaflow.mask.is_exact(FieldId::kInPort));
  EXPECT_FALSE(xr.megaflow.mask.has_field(FieldId::kTpDst));
}

TEST(PipelineTest, TableMissDrops) {
  Pipeline p(1);
  auto xr = p.translate(tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4),
                        0);
  EXPECT_TRUE(xr.actions.drops());
  EXPECT_FALSE(xr.to_controller);
}

TEST(PipelineTest, TableMissToController) {
  Pipeline p(1);
  p.table(0).set_miss_behavior(FlowTable::MissBehavior::kController);
  auto xr = p.translate(tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4),
                        0);
  EXPECT_TRUE(xr.to_controller);
  EXPECT_EQ(xr.actions.list.size(), 1u);
}

TEST(PipelineTest, ResubmitSolvesCrossProduct) {
  // §3.3: one table matching field A and another matching field B instead
  // of |A| x |B| flows. Table 0 classifies by nw_src into reg0, resubmits
  // to table 1 which forwards by nw_dst.
  Pipeline p(2);
  p.table(0).add_flow(MatchBuilder().ip().nw_src(Ipv4(10, 0, 0, 1)), 5,
                      OfActions().set_reg(0, 100).resubmit(1));
  p.table(0).add_flow(MatchBuilder().ip().nw_src(Ipv4(10, 0, 0, 2)), 5,
                      OfActions().set_reg(0, 200).resubmit(1));
  p.table(1).add_flow(MatchBuilder().ip().nw_dst(Ipv4(20, 0, 0, 1)), 5,
                      OfActions().output(1));
  p.table(1).add_flow(MatchBuilder().ip().nw_dst(Ipv4(20, 0, 0, 2)), 5,
                      OfActions().output(2));

  auto xr = p.translate(
      tcp_key(9, Ipv4(10, 0, 0, 2), Ipv4(20, 0, 0, 1), 1, 2), 0);
  EXPECT_EQ(xr.actions.to_string(), "set(reg0=200),output:1");
  EXPECT_EQ(xr.table_lookups, 2u);
  // Both consulted fields end up in the megaflow.
  EXPECT_TRUE(xr.megaflow.mask.is_exact(FieldId::kNwSrc));
  EXPECT_TRUE(xr.megaflow.mask.is_exact(FieldId::kNwDst));
}

TEST(PipelineTest, RegisterMatchAfterSetDoesNotUnwildcardPacketBits) {
  // Registers (§3.3): table 1 matches reg0, which table 0 wrote. The reg0
  // match must NOT appear in the megaflow — the packet's own reg0 is zero
  // and was never consulted.
  Pipeline p(2);
  p.table(0).add_flow(MatchBuilder().ip(), 5,
                      OfActions().set_reg(0, 42).resubmit(1));
  p.table(1).add_flow(MatchBuilder().reg(0, 42), 5, OfActions().output(3));
  auto xr = p.translate(
      tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4), 0);
  EXPECT_EQ(xr.actions.to_string(), "set(reg0=42),output:3");
  EXPECT_FALSE(xr.megaflow.mask.has_field(FieldId::kReg0))
      << "rewritten register must not be unwildcarded";
}

TEST(PipelineTest, RewrittenHeaderFieldSuppressed) {
  // Table 0 rewrites the destination IP and resubmits; table 1 matches the
  // *new* destination. The megaflow must not match the packet's original
  // nw_dst bits beyond what table 0 consulted.
  Pipeline p(2);
  p.table(0).add_flow(
      MatchBuilder().ip(), 5,
      OfActions()
          .set_field(FieldId::kNwDst, Ipv4(99, 0, 0, 1).value())
          .resubmit(1));
  p.table(1).add_flow(MatchBuilder().ip().nw_dst(Ipv4(99, 0, 0, 1)), 5,
                      OfActions().output(8));
  auto xr = p.translate(
      tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4), 0);
  EXPECT_EQ(xr.actions.to_string(), "set(nw_dst=1660944385),output:8");
  EXPECT_FALSE(xr.megaflow.mask.has_field(FieldId::kNwDst));
}

TEST(PipelineTest, ResubmitDepthLimit) {
  Pipeline p(1);
  // Table 0 resubmits to itself forever.
  p.table(0).add_flow(Match{}, 1, OfActions().resubmit(0));
  auto xr = p.translate(
      tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4), 0);
  EXPECT_TRUE(xr.error);
  EXPECT_TRUE(xr.actions.drops());  // fail safe
}

TEST(PipelineTest, DropTerminatesActionList) {
  Pipeline p(1);
  OfActions acts;
  acts.list.push_back(OfDrop{});
  acts.output(5);  // unreachable
  p.table(0).add_flow(MatchBuilder().ip(), 1, acts);
  auto xr = p.translate(
      tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4), 0);
  EXPECT_TRUE(xr.actions.drops());
}

TEST(PipelineTest, TunnelAction) {
  Pipeline p(1);
  p.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().tunnel(100, 777));
  auto xr = p.translate(
      tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4), 0);
  EXPECT_EQ(xr.actions.to_string(), "tunnel(port=100,tun_id=777)");
}

TEST(PipelineTest, OutputToInPortSuppressed) {
  Pipeline p(1);
  p.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(1));
  auto xr = p.translate(
      tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4), 0);
  EXPECT_TRUE(xr.actions.drops()) << "no hairpin back out of the in_port";
}

TEST(PipelineTest, NormalLearnsAndForwards) {
  Pipeline p(1);
  p.add_port(1);
  p.add_port(2);
  p.add_port(3);
  p.table(0).add_flow(Match{}, 0, OfActions().normal());

  // Unknown destination: flood to all ports but the ingress.
  FlowKey k1 = tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4);
  k1.set_eth_src(EthAddr(0, 0, 0, 0, 0, 0xaa));
  k1.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0xbb));
  auto xr1 = p.translate(k1, 0);
  EXPECT_EQ(xr1.actions.to_string(), "output:2,output:3");
  EXPECT_EQ(p.mac_learning().size(), 1u);  // learned 0xaa @ port 1

  // Traffic back toward 0xaa: unicast to port 1.
  FlowKey k2 = tcp_key(2, Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 4, 3);
  k2.set_eth_src(EthAddr(0, 0, 0, 0, 0, 0xbb));
  k2.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0xaa));
  auto xr2 = p.translate(k2, 1);
  EXPECT_EQ(xr2.actions.to_string(), "output:1");
  // NORMAL megaflows match both MACs and in_port.
  EXPECT_TRUE(xr2.megaflow.mask.is_exact(FieldId::kEthDst));
  EXPECT_TRUE(xr2.megaflow.mask.is_exact(FieldId::kEthSrc));
  EXPECT_TRUE(xr2.megaflow.mask.is_exact(FieldId::kInPort));
  // ...but not L3/L4.
  EXPECT_FALSE(xr2.megaflow.mask.has_field(FieldId::kNwDst));
  EXPECT_FALSE(xr2.megaflow.mask.has_field(FieldId::kTpDst));
  // Tags cover both MAC bindings.
  EXPECT_NE(xr2.tags, 0u);
}

TEST(PipelineTest, NormalWithoutSideEffectsDoesNotLearn) {
  Pipeline p(1);
  p.add_port(1);
  p.add_port(2);
  p.table(0).add_flow(Match{}, 0, OfActions().normal());
  FlowKey k = tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4);
  k.set_eth_src(EthAddr(0, 0, 0, 0, 0, 0xaa));
  p.translate(k, 0, /*side_effects=*/false);
  EXPECT_EQ(p.mac_learning().size(), 0u);
}

TEST(PipelineTest, NormalFloodConsultsOnlyTheGroupBitOfEthDst) {
  Pipeline p(1);
  for (uint32_t port = 1; port <= 3; ++port) p.add_port(port);
  p.table(0).add_flow(Match{}, 0, OfActions().normal());
  FlowKey k = tcp_key(1, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 3, 4);
  k.set_eth_dst(kEthBroadcast);
  const XlateResult flood = p.translate(k, 0);
  EXPECT_EQ(flood.actions.to_string(), "output:2,output:3");
  // One megaflow covers every multicast destination from this source.
  FlowMask group;
  group.w[field_info(FieldId::kEthDst).word] = EthAddr::kGroupBit;
  FlowMask eth_dst_mask;
  eth_dst_mask.set_exact(FieldId::kEthDst);
  for (size_t i = 0; i < kFlowWords; ++i)
    EXPECT_EQ(flood.megaflow.mask.w[i] & eth_dst_mask.w[i], group.w[i]);
  k.set_eth_dst(EthAddr(0x01, 0x00, 0x5e, 0x00, 0x00, 0x07));
  const XlateResult mcast = p.translate(k, 1);
  EXPECT_EQ(mcast.actions, flood.actions);
  EXPECT_EQ(mcast.megaflow, flood.megaflow);
  // A unicast destination is looked up, so all of it is consulted.
  k.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0xbb));
  EXPECT_TRUE(p.translate(k, 2).megaflow.mask.is_exact(FieldId::kEthDst));
}

TEST(PipelineTest, ConnTrackStatefulFirewall) {
  // Table 0: send IP through ct into table 1; table 1: allow established,
  // allow new only from port 1 (and commit), drop otherwise.
  Pipeline p(2);
  p.table(0).add_flow(MatchBuilder().ip(), 10, OfActions().ct(1));
  p.table(1).add_flow(MatchBuilder().ct_state(ct_state::kNew).in_port(1), 10,
                      OfActions().ct(1, /*commit=*/true));
  // After commit+recirculation the state reads established.
  p.table(1).add_flow(
      MatchBuilder().ct_state(ct_state::kEstablished).in_port(1), 9,
      OfActions().output(2));
  p.table(1).add_flow(
      MatchBuilder().ct_state(ct_state::kEstablished | ct_state::kReply)
          .in_port(2),
      9, OfActions().output(1));

  // Outbound SYN from the trusted side: allowed and committed.
  auto xr1 = p.translate(
      tcp_key(1, Ipv4(10, 0, 0, 1), Ipv4(20, 0, 0, 1), 1234, 80), 0);
  EXPECT_EQ(xr1.actions.to_string(), "output:2");
  EXPECT_EQ(p.conntrack().size(), 1u);

  // Reply from outside: established -> allowed.
  auto xr2 = p.translate(
      tcp_key(2, Ipv4(20, 0, 0, 1), Ipv4(10, 0, 0, 1), 80, 1234), 1);
  EXPECT_EQ(xr2.actions.to_string(), "output:1");

  // Unsolicited packet from outside: new on port 2 -> drop.
  auto xr3 = p.translate(
      tcp_key(2, Ipv4(20, 0, 0, 9), Ipv4(10, 0, 0, 1), 9999, 22), 2);
  EXPECT_TRUE(xr3.actions.drops());

  // ct megaflows are per-connection: the 5-tuple must be matched.
  EXPECT_TRUE(xr1.megaflow.mask.is_exact(FieldId::kTpSrc));
  EXPECT_TRUE(xr1.megaflow.mask.is_exact(FieldId::kNwSrc));
}

TEST(PipelineTest, GenerationTracksChanges) {
  Pipeline p(2);
  const uint64_t g0 = p.generation();
  p.table(1).add_flow(MatchBuilder().ip(), 1, OfActions().output(1));
  const uint64_t g1 = p.generation();
  EXPECT_GT(g1, g0);
  p.add_port(5);
  EXPECT_GT(p.generation(), g1);
  const uint64_t g2 = p.generation();
  p.mac_learning().learn(EthAddr(1), 0, 5, 0);
  EXPECT_GT(p.generation(), g2);
}

TEST(PipelineTest, FlowCountSumsTables) {
  Pipeline p(3);
  p.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(1));
  p.table(2).add_flow(MatchBuilder().arp(), 1, OfActions().output(1));
  EXPECT_EQ(p.flow_count(), 2u);
}

// Pipeline-level soundness: any packet matching a generated megaflow must
// translate to the same actions. This extends the classifier property test
// across resubmits, registers, rewrites, NORMAL, and ct.
TEST(PipelineTest, MegaflowSoundnessUnderRandomPipelines) {
  Rng rng(321);
  for (int round = 0; round < 12; ++round) {
    Pipeline p(4);
    p.add_port(1);
    p.add_port(2);
    p.add_port(3);
    // Random-ish NVP-style pipeline.
    p.table(0).add_flow(MatchBuilder().in_port(1), 10,
                        OfActions().set_reg(0, 1).resubmit(1));
    p.table(0).add_flow(MatchBuilder().in_port(2), 10,
                        OfActions().set_reg(0, 2).resubmit(1));
    p.table(0).add_flow(Match{}, 1, OfActions().normal());
    p.table(1).add_flow(
        MatchBuilder().reg(0, 1).tcp().tp_dst(
            static_cast<uint16_t>(rng.range(1, 3))),
        20, OfActions::drop());
    p.table(1).add_flow(MatchBuilder().reg(0, 1).ip(), 10,
                        OfActions().resubmit(2));
    p.table(1).add_flow(MatchBuilder().reg(0, 2).ip(), 10,
                        OfActions().resubmit(2));
    p.table(2).add_flow(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 10,
        OfActions().output(3));
    p.table(2).add_flow(Match{}, 1, OfActions().normal());

    for (int q = 0; q < 60; ++q) {
      FlowKey pkt;
      pkt.set_in_port(static_cast<uint32_t>(rng.range(1, 3)));
      pkt.set_eth_src(EthAddr(rng.range(1, 4)));
      pkt.set_eth_dst(EthAddr(rng.range(1, 4)));
      pkt.set_eth_type(ethertype::kIpv4);
      pkt.set_nw_proto(rng.chance(0.5) ? ipproto::kTcp : ipproto::kUdp);
      pkt.set_nw_src(Ipv4(10, 0, 0, static_cast<uint8_t>(rng.uniform(4))));
      pkt.set_nw_dst(rng.chance(0.5)
                         ? Ipv4(10, 0, 0, static_cast<uint8_t>(rng.uniform(4)))
                         : Ipv4(20, 0, 0, 1));
      pkt.set_tp_src(static_cast<uint16_t>(rng.range(1, 4)));
      pkt.set_tp_dst(static_cast<uint16_t>(rng.range(1, 4)));

      auto xr = p.translate(pkt, 0, /*side_effects=*/false);
      for (int trial = 0; trial < 6; ++trial) {
        FlowKey mutant = pkt;
        for (size_t w = 0; w < kFlowWords; ++w)
          if (rng.chance(0.5)) mutant.w[w] ^= rng.next() & ~xr.megaflow.mask.w[w];
        auto xr2 = p.translate(mutant, 0, /*side_effects=*/false);
        ASSERT_EQ(xr2.actions, xr.actions)
            << "pkt    " << pkt.to_string() << "\nmutant "
            << mutant.to_string() << "\nmask   "
            << xr.megaflow.mask.to_string() << "\nacts   "
            << xr.actions.to_string() << " vs " << xr2.actions.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace ovs
