// Tests for switch configuration save/restore and text flow deletion.
#include "vswitchd/config.h"

#include <gtest/gtest.h>

#include "ofproto/flow_parser.h"

namespace ovs {
namespace {

Packet tcp_to(Ipv4 dst, uint16_t dport) {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(1, 1, 1, 1));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(40000);
  p.key.set_tp_dst(dport);
  return p;
}

TEST(ConfigTest, SaveLoadRoundTrip) {
  Switch a;
  a.add_port(1);
  a.add_port(2);
  a.add_port(7);
  ASSERT_EQ(a.add_flow("table=0, priority=10, tcp, nw_dst=9.1.1.0/24, "
                       "actions=output:2"),
            "");
  ASSERT_EQ(a.add_flow("table=0, priority=20, arp, actions=normal"), "");
  ASSERT_EQ(a.add_flow("table=1, priority=5, reg1=7, actions=output:7"), "");

  const std::string saved = save_switch_config(a);
  Switch b;
  ASSERT_EQ(load_switch_config(b, saved), "");

  EXPECT_EQ(a.dump_flows(), b.dump_flows());
  EXPECT_EQ(a.pipeline().ports(), b.pipeline().ports());
  // Save of the restored switch is identical (fixpoint).
  EXPECT_EQ(save_switch_config(b), saved);
}

TEST(ConfigTest, RestoredSwitchBehavesIdentically) {
  Switch a;
  a.add_port(1);
  a.add_port(2);
  a.add_flow("table=0, priority=10, tcp, nw_dst=9.1.1.0/24, "
             "actions=output:2");
  Switch b;
  ASSERT_EQ(load_switch_config(b, save_switch_config(a)), "");
  for (Switch* sw : {&a, &b}) {
    sw->inject(tcp_to(Ipv4(9, 1, 1, 5), 80), 0);
    sw->handle_upcalls(0);
  }
  EXPECT_EQ(a.port_stats(2).tx_packets, b.port_stats(2).tx_packets);
  EXPECT_EQ(a.backend().flow_count(), b.backend().flow_count());
}

TEST(ConfigTest, LoadRejectsBadLinesWithLineNumbers) {
  Switch sw;
  const std::string err =
      load_switch_config(sw, "port 1\nflow junk=1, actions=drop\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;

  EXPECT_NE(load_switch_config(sw, "frobnicate\n").find("line 1"),
            std::string::npos);
  EXPECT_NE(load_switch_config(sw, "port xyz\n").find("line 1"),
            std::string::npos);
}

TEST(ConfigTest, CommentsAndBlanksIgnored) {
  Switch sw;
  EXPECT_EQ(load_switch_config(sw,
                               "# header\n"
                               "\n"
                               "   # indented comment\n"
                               "port 3\n"),
            "");
  EXPECT_EQ(sw.pipeline().ports().size(), 1u);
}

TEST(DelFlowsTest, LooseMatchDeletion) {
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  sw.add_flow("table=0, priority=10, tcp, nw_dst=9.1.1.0/24, tp_dst=80, "
              "actions=output:2");
  sw.add_flow("table=0, priority=11, tcp, nw_dst=9.1.1.0/24, tp_dst=443, "
              "actions=output:2");
  sw.add_flow("table=0, priority=12, udp, nw_dst=9.1.1.0/24, "
              "actions=output:2");
  sw.add_flow("table=1, priority=5, tcp, actions=drop");
  ASSERT_EQ(sw.dump_flows().size(), 4u);

  // Delete all TCP flows in table 0 only.
  size_t n = 0;
  ASSERT_EQ(sw.del_flows("table=0, tcp", &n), "");
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(sw.dump_flows().size(), 2u);

  // Delete everything.
  ASSERT_EQ(sw.del_flows("", &n), "");
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(sw.dump_flows().empty());
}

TEST(DelFlowsTest, FilterValuesMustAgree) {
  Switch sw;
  sw.add_flow("table=0, priority=1, tcp, tp_dst=80, actions=drop");
  size_t n = 9;
  ASSERT_EQ(sw.del_flows("tcp, tp_dst=443", &n), "");
  EXPECT_EQ(n, 0u);  // value mismatch: nothing deleted
  ASSERT_EQ(sw.del_flows("tcp, tp_dst=80", &n), "");
  EXPECT_EQ(n, 1u);
}

TEST(DelFlowsTest, BadFilterReported) {
  Switch sw;
  EXPECT_NE(sw.del_flows("nonsense=1"), "");
}

TEST(VlanActionsTest, PushPopSugarAndParser) {
  FlowParseResult r =
      parse_flow("ip, actions=mod_vlan_vid:100, output:2");
  ASSERT_TRUE(r.ok) << r.error;
  const auto& sf = std::get<OfSetField>(r.flow.actions.list[0]);
  EXPECT_EQ(sf.field, FieldId::kVlanTci);
  EXPECT_EQ(sf.value, 0x1000u | 100u);

  FlowParseResult s = parse_flow("ip, actions=strip_vlan, output:2");
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_EQ(std::get<OfSetField>(s.flow.actions.list[0]).value, 0u);

  // End-to-end: tag on ingress, forwarded packet carries the TCI.
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  sw.add_flow("table=0, priority=1, ip, actions=mod_vlan_vid:100, output:2");
  uint16_t seen_tci = 0;
  sw.set_output_handler([&](uint32_t, const Packet& pkt) {
    seen_tci = pkt.key.vlan_tci();
  });
  sw.inject(tcp_to(Ipv4(5, 5, 5, 5), 80), 0);
  sw.handle_upcalls(0);
  EXPECT_EQ(seen_tci, 0x1000u | 100u);
}

}  // namespace
}  // namespace ovs
