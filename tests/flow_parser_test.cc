// Tests for the ovs-ofctl-style flow text parser and formatter.
#include "ofproto/flow_parser.h"

#include <gtest/gtest.h>

#include "vswitchd/switch.h"

namespace ovs {
namespace {

ParsedFlow must_parse(const std::string& s) {
  FlowParseResult r = parse_flow(s);
  EXPECT_TRUE(r.ok) << s << " -> " << r.error;
  return r.flow;
}

TEST(FlowParserTest, MinimalFlow) {
  ParsedFlow f = must_parse("actions=drop");
  EXPECT_EQ(f.table, 0u);
  EXPECT_EQ(f.priority, 0);
  EXPECT_TRUE(f.match.mask.is_zero());
  EXPECT_EQ(f.actions.to_string(), "drop");
}

TEST(FlowParserTest, FullTcpAcl) {
  ParsedFlow f = must_parse(
      "table=2, priority=100, tcp, nw_dst=9.1.1.0/24, tp_dst=80, "
      "actions=output:2");
  EXPECT_EQ(f.table, 2u);
  EXPECT_EQ(f.priority, 100);
  EXPECT_TRUE(f.match.mask.is_exact(FieldId::kEthType));
  EXPECT_TRUE(f.match.mask.is_exact(FieldId::kNwProto));
  EXPECT_EQ(f.match.key.nw_proto(), ipproto::kTcp);
  EXPECT_EQ(f.match.mask.prefix_len(FieldId::kNwDst), 24);
  EXPECT_EQ(f.match.key.nw_dst(), Ipv4(9, 1, 1, 0));
  EXPECT_EQ(f.match.key.tp_dst(), 80);
  ASSERT_EQ(f.actions.list.size(), 1u);
  EXPECT_EQ(std::get<OfOutput>(f.actions.list[0]).port, 2u);
}

TEST(FlowParserTest, ProtocolKeywords) {
  EXPECT_EQ(must_parse("arp, actions=normal").match.key.eth_type(),
            ethertype::kArp);
  EXPECT_EQ(must_parse("udp, actions=drop").match.key.nw_proto(),
            ipproto::kUdp);
  EXPECT_EQ(must_parse("icmp, actions=drop").match.key.nw_proto(),
            ipproto::kIcmp);
  EXPECT_EQ(must_parse("ipv6, actions=drop").match.key.eth_type(),
            ethertype::kIpv6);
}

TEST(FlowParserTest, MacAndMetadataFields) {
  ParsedFlow f = must_parse(
      "priority=5, in_port=3, dl_src=02:00:00:00:00:01, "
      "dl_dst=ff:ff:ff:ff:ff:ff, metadata=7, reg1=42, actions=controller");
  EXPECT_EQ(f.match.key.in_port(), 3u);
  EXPECT_EQ(f.match.key.eth_src(), EthAddr(0x02, 0, 0, 0, 0, 1));
  EXPECT_TRUE(f.match.key.eth_dst().is_broadcast());
  EXPECT_EQ(f.match.key.metadata(), 7u);
  EXPECT_EQ(f.match.key.reg(1), 42u);
  EXPECT_TRUE(f.match.mask.is_exact(FieldId::kReg1));
}

TEST(FlowParserTest, Ipv6Prefix) {
  ParsedFlow f = must_parse(
      "ipv6, ipv6_dst=2001:db8:0:0:0:0:0:1/32, actions=output:1");
  EXPECT_EQ(f.match.mask.prefix_len(FieldId::kIpv6Dst), 32);
  EXPECT_EQ(f.match.key.ipv6_dst().hi() >> 32, 0x20010db8u);
}

TEST(FlowParserTest, MultiActionPipeline) {
  ParsedFlow f = must_parse(
      "ip, actions=set_field:5->reg0, resubmit(,3), output:9");
  ASSERT_EQ(f.actions.list.size(), 3u);
  EXPECT_EQ(std::get<OfSetField>(f.actions.list[0]).value, 5u);
  EXPECT_EQ(std::get<OfResubmit>(f.actions.list[1]).table, 3);
  EXPECT_EQ(std::get<OfOutput>(f.actions.list[2]).port, 9u);
}

TEST(FlowParserTest, SetFieldValueTypes) {
  ParsedFlow f = must_parse(
      "ip, actions=set_field:10.0.0.9->nw_dst, "
      "set_field:02:00:00:00:00:09->eth_dst, set_field:0x2a->reg2");
  EXPECT_EQ(std::get<OfSetField>(f.actions.list[0]).value,
            Ipv4(10, 0, 0, 9).value());
  EXPECT_EQ(std::get<OfSetField>(f.actions.list[1]).value,
            EthAddr(0x02, 0, 0, 0, 0, 9).bits());
  EXPECT_EQ(std::get<OfSetField>(f.actions.list[2]).value, 42u);
}

TEST(FlowParserTest, CtAndTunnelActions) {
  ParsedFlow f = must_parse("tcp, actions=ct(commit,table=4)");
  const auto& ct = std::get<OfCt>(f.actions.list[0]);
  EXPECT_TRUE(ct.commit);
  EXPECT_EQ(ct.next_table, 4);

  ParsedFlow g = must_parse("ip, actions=tunnel(1000,77)");
  const auto& t = std::get<OfTunnel>(g.actions.list[0]);
  EXPECT_EQ(t.port, 1000u);
  EXPECT_EQ(t.tun_id, 77u);
}

TEST(FlowParserTest, IcmpTypeCode) {
  ParsedFlow f = must_parse("icmp, icmp_type=3, icmp_code=4, actions=drop");
  EXPECT_EQ(f.match.key.tp_src(), 3);
  EXPECT_EQ(f.match.key.tp_dst(), 4);
}

TEST(FlowParserTest, PortPrefix) {
  ParsedFlow f = must_parse("tcp, tp_dst=1024/6, actions=drop");
  EXPECT_EQ(f.match.mask.prefix_len(FieldId::kTpDst), 6);
}

TEST(FlowParserTest, RejectsGarbage) {
  EXPECT_FALSE(parse_flow("").ok);  // no actions
  EXPECT_FALSE(parse_flow("ip").ok);
  EXPECT_FALSE(parse_flow("bogus=1, actions=drop").ok);
  EXPECT_FALSE(parse_flow("nw_dst=999.0.0.1, actions=drop").ok);
  EXPECT_FALSE(parse_flow("nw_dst=10.0.0.0/33, actions=drop").ok);
  EXPECT_FALSE(parse_flow("tp_dst=99999, actions=drop").ok);
  EXPECT_FALSE(parse_flow("ip, actions=fly:2").ok);
  EXPECT_FALSE(parse_flow("ip, actions=output:x").ok);
  EXPECT_FALSE(parse_flow("ip, actions=resubmit(,99)").ok);
  EXPECT_FALSE(parse_flow("ip, actions=ct(commit)").ok);  // needs table=
  EXPECT_FALSE(parse_flow("table=99, ip, actions=drop").ok);
  EXPECT_FALSE(parse_flow("dl_src=zz:00:00:00:00:01, actions=drop").ok);
  // Inputs the text fuzzer found accepted where they should not be.
  EXPECT_FALSE(parse_flow("ip, actions=").ok);  // formats as "drop"
  EXPECT_FALSE(parse_flow("metadata=-1, actions=drop").ok);
  EXPECT_FALSE(parse_flow("ip, actions=set_field:-1->tun_id").ok);
  EXPECT_FALSE(parse_flow("ip, actions=set_field:0x100->nw_ttl").ok);
  EXPECT_FALSE(parse_flow("ip, actions=ct(table=1,nat,nat)").ok);
  EXPECT_FALSE(parse_flow("ipv6, ipv6_src=12345:0:0:0:0:0:0:0, actions=drop")
                   .ok);
}

TEST(FlowParserTest, ErrorsNameTheProblem) {
  EXPECT_NE(parse_flow("frobnicate=1, actions=drop").error.find("frobnicate"),
            std::string::npos);
  EXPECT_NE(parse_flow("ip, actions=warp:9").error.find("warp"),
            std::string::npos);
}

TEST(FlowParserTest, FormatRoundTrips) {
  const char* flows[] = {
      "table=0, priority=100, tcp, nw_dst=9.1.1.0/24, tp_dst=80, "
      "actions=output:2",
      "table=1, priority=5, arp, actions=normal",
      "table=2, priority=7, in_port=3, metadata=9, "
      "actions=set_field:5->reg0, resubmit(,3)",
      "table=3, priority=1, icmp, icmp_type=3, actions=drop",
      "table=0, priority=0, actions=controller",
      "table=1, priority=9, udp, tp_src=53, actions=tunnel(1000,42)",
      "table=0, priority=2, tcp, actions=ct(commit,table=1)",
      // Cases the text fuzzer (FlowTextFuzz) found formatted lossily.
      "table=0, priority=1, ip, actions=controller:7",
      "table=0, priority=1, ipv6, ipv6_src=2001:db8:0:0:0:0:0:0/64, "
      "actions=drop",
      "table=0, priority=1, icmp, tp_src=8/4, actions=drop",
  };
  for (const char* text : flows) {
    ParsedFlow f1 = must_parse(text);
    const std::string formatted =
        format_flow(f1.table, f1.priority, f1.match, f1.actions);
    ParsedFlow f2 = must_parse(formatted);
    EXPECT_EQ(f1.table, f2.table) << formatted;
    EXPECT_EQ(f1.priority, f2.priority) << formatted;
    EXPECT_EQ(f1.match, f2.match) << formatted;
    EXPECT_EQ(f1.actions, f2.actions) << formatted;
  }
}

TEST(FlowParserTest, SwitchTextInterface) {
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  EXPECT_EQ(sw.add_flow("table=0, priority=10, ip, nw_dst=10.0.0.0/8, "
                        "actions=output:2"),
            "");
  EXPECT_EQ(sw.add_flow("table=0, priority=20, arp, actions=normal"), "");
  EXPECT_NE(sw.add_flow("table=0, priority=1, junk, actions=drop"), "");

  auto flows = sw.dump_flows();
  ASSERT_EQ(flows.size(), 2u);
  // dump output must itself be parseable (stable round trip).
  for (const std::string& f : flows) EXPECT_TRUE(parse_flow(f).ok) << f;

  // And the flows must actually work.
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_dst(Ipv4(10, 1, 2, 3));
  sw.inject(p, 0);
  sw.handle_upcalls(0);
  EXPECT_EQ(sw.port_stats(2).tx_packets, 1u);
}

TEST(FlowParserTest, WhitespaceTolerance) {
  ParsedFlow f = must_parse(
      "  table=1 ,priority=3,  tcp ,nw_dst=1.2.3.4  , actions= output:7 ");
  EXPECT_EQ(f.table, 1u);
  EXPECT_EQ(f.match.key.nw_dst(), Ipv4(1, 2, 3, 4));
  EXPECT_EQ(std::get<OfOutput>(f.actions.list[0]).port, 7u);
}

TEST(FlowParserTest, CookieSupport) {
  ParsedFlow f = must_parse("cookie=0xdead, ip, actions=drop");
  EXPECT_EQ(f.cookie, 0xdeadu);
}

}  // namespace
}  // namespace ovs
