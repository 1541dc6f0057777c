// Megaflow generation tests: the caching-aware classification algorithm
// (paper §5). Each optimization must make generated megaflows *more
// general* (fewer bits matched) without ever changing lookup results.
#include <gtest/gtest.h>

#include "classifier/classifier.h"
#include "test_util.h"

namespace ovs {
namespace {

using testutil::RuleSet;
using testutil::TestRule;

FlowKey tcp_packet(Ipv4 dst, uint16_t sport, uint16_t dport,
                   Ipv4 src = Ipv4(1, 2, 3, 4)) {
  FlowKey k;
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kTcp);
  k.set_nw_src(src);
  k.set_nw_dst(dst);
  k.set_tp_src(sport);
  k.set_tp_dst(dport);
  return k;
}

// Builds the paper's §7.2 microbenchmark OpenFlow table:
//   arp                                           (highest priority)
//   ip  ip_dst=11.1.1.1/16
//   tcp ip_dst=9.1.1.1 tcp_src=10 tcp_dst=10
//   ip  ip_dst=9.1.1.1/24                         (lowest priority)
void add_paper_table(RuleSet& rs) {
  rs.add(MatchBuilder().arp(), 40, 1);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(11, 1, 1, 1), 16), 30, 2);
  rs.add(MatchBuilder().tcp().nw_dst(Ipv4(9, 1, 1, 1)).tp_src(10).tp_dst(10),
         20, 3);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 1, 1, 1), 24), 10, 4);
}

TEST(WildcardsTest, MatchedRuleMaskIsIncluded) {
  RuleSet rs;
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 1, 1, 0), 24), 5, 1);
  FlowWildcards wc;
  ASSERT_NE(rs.classifier().lookup(tcp_packet(Ipv4(9, 1, 1, 7), 1, 2), &wc),
            nullptr);
  EXPECT_TRUE(wc.is_exact(FieldId::kEthType));
  EXPECT_GE(wc.prefix_len(FieldId::kNwDst), 24);
}

TEST(WildcardsTest, L2OnlyTableWildcardsL3L4) {
  // §5.1: "if the OpenFlow table only looks at Ethernet addresses ... port
  // scans will not cause packets to go to userspace" — the megaflow must not
  // match on L3/L4 at all.
  RuleSet rs;
  for (uint64_t m = 1; m <= 4; ++m)
    rs.add(MatchBuilder().eth_dst(EthAddr(m)), 1, static_cast<int>(m));
  FlowKey pkt = tcp_packet(Ipv4(9, 9, 9, 9), 12345, 80);
  pkt.set_eth_dst(EthAddr(2));
  FlowWildcards wc;
  ASSERT_NE(rs.classifier().lookup(pkt, &wc), nullptr);
  EXPECT_TRUE(wc.is_exact(FieldId::kEthDst));
  EXPECT_FALSE(wc.has_field(FieldId::kNwDst));
  EXPECT_FALSE(wc.has_field(FieldId::kNwSrc));
  EXPECT_FALSE(wc.has_field(FieldId::kTpSrc));
  EXPECT_FALSE(wc.has_field(FieldId::kTpDst));
}

TEST(WildcardsTest, NoOptimizationsUnwildcardPorts) {
  // §7.2: "with no caching-aware packet classification, any TCP packet will
  // always generate a megaflow that matches on TCP source and destination
  // ports, because flow #3 matches on those fields".
  RuleSet rs(ClassifierConfig::all_disabled());
  add_paper_table(rs);
  FlowWildcards wc;
  ASSERT_NE(
      rs.classifier().lookup(tcp_packet(Ipv4(11, 1, 9, 9), 1000, 80), &wc),
      nullptr);
  EXPECT_TRUE(wc.is_exact(FieldId::kTpSrc));
  EXPECT_TRUE(wc.is_exact(FieldId::kTpDst));
}

TEST(WildcardsTest, PrioritySortingOmitsPortsForHigherPriorityMatch) {
  // §7.2: "with priority sorting, packets that match flow #2 can omit
  // matching on TCP ports, because flow #3 is never considered".
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.priority_sorting = true;
  RuleSet rs(cfg);
  add_paper_table(rs);
  FlowWildcards wc;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(11, 1, 9, 9), 1000, 80), &wc);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 2);
  EXPECT_FALSE(wc.has_field(FieldId::kTpSrc));
  EXPECT_FALSE(wc.has_field(FieldId::kTpDst));
}

TEST(WildcardsTest, StagedLookupOmitsPortsWhenL3Differs) {
  // §7.2: "with staged lookup, IP packets not destined to 9.1.1.1 never need
  // to match on TCP ports, because flow #3 is identified as non-matching
  // after considering only the IP destination address".
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.staged_lookup = true;
  RuleSet rs(cfg);
  add_paper_table(rs);
  FlowWildcards wc;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(10, 7, 7, 7), 1000, 80), &wc);
  EXPECT_EQ(r, nullptr);  // matches nothing
  EXPECT_FALSE(wc.has_field(FieldId::kTpSrc));
  EXPECT_FALSE(wc.has_field(FieldId::kTpDst));
  // But the L3 fields that were consulted are matched.
  EXPECT_TRUE(wc.has_field(FieldId::kNwDst));
}

TEST(WildcardsTest, StagedLookupStillUnwildcardsPortsOnFullSearch) {
  // A packet to 9.1.1.1 with the wrong ports reaches the L4 stage of flow
  // #3's tuple, so ports are (correctly) unwildcarded.
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.staged_lookup = true;
  RuleSet rs(cfg);
  add_paper_table(rs);
  FlowWildcards wc;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(9, 1, 1, 1), 1000, 80), &wc);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 4);
  EXPECT_TRUE(wc.is_exact(FieldId::kTpSrc));
}

TEST(WildcardsTest, PrefixTrackingAvoidsFullAddressMatch) {
  // §5.4: flows 10/8 and 10.1.2.3/32; a packet to 10.5.6.7 must get a
  // megaflow much wider than /32 (the paper installs 10.5/16; bit-level
  // tracking yields /14).
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.prefix_tracking = true;
  RuleSet rs(cfg);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 2, 1);
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(10, 1, 2, 3)), 3, 2);
  FlowWildcards wc;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(10, 5, 6, 7), 1, 2), &wc);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 1);
  const int plen = wc.prefix_len(FieldId::kNwDst);
  ASSERT_GE(plen, 8);
  EXPECT_LE(plen, 16);  // far more general than /32
}

TEST(WildcardsTest, WithoutPrefixTrackingFullAddressIsMatched) {
  RuleSet rs(ClassifierConfig::all_disabled());
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 2, 1);
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(10, 1, 2, 3)), 3, 2);
  FlowWildcards wc;
  ASSERT_NE(rs.classifier().lookup(tcp_packet(Ipv4(10, 5, 6, 7), 1, 2), &wc),
            nullptr);
  EXPECT_EQ(wc.prefix_len(FieldId::kNwDst), 32);
}

TEST(WildcardsTest, PrefixTrackingSkipsTuples) {
  // §5.4: for 10.1.6.1 no flow longer than /16 matches, so /24 and /32
  // tuples are skipped entirely.
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.prefix_tracking = true;
  RuleSet rs(cfg);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 1, 0, 0), 16), 1, 1);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 1, 3, 0), 24), 1, 2);
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(10, 1, 4, 5)), 1, 3);
  FlowWildcards wc;
  LookupCounts n;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(10, 1, 6, 1), 1, 2), &wc, &n);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 1);
  EXPECT_EQ(n.skipped, 2u);
  EXPECT_EQ(n.searched, 1u);
}

TEST(WildcardsTest, PortPrefixTrackingKeepsHighPortsGeneral) {
  // §5.4 (last paragraph): a high-priority ACL on a specific port (e.g.
  // block SMTP) must not force all megaflows to match the full 16-bit port.
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.staged_lookup = true;
  cfg.port_prefix_tracking = true;
  RuleSet rs(cfg);
  rs.add(MatchBuilder().tcp().tp_dst(25), 100, 1);  // block SMTP
  rs.add(MatchBuilder().ip(), 1, 2);                // allow other IP
  FlowWildcards wc;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(5, 5, 5, 5), 1000, 54321), &wc);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 2);
  const int plen = wc.prefix_len(FieldId::kTpDst);
  ASSERT_GE(plen, 0) << "port mask should be a prefix";
  EXPECT_LT(plen, 16) << "port must not be fully unwildcarded";
  // Port 25 = 0b0000000000011001: port 54321 has the top bit set, so a
  // 1-bit prefix should actually suffice.
  EXPECT_LE(plen, 2);
}

TEST(WildcardsTest, IcmpRulesDoNotPoisonPortTries) {
  // Regression test for the §7.1 production outliers: "flows that match on
  // an ICMP type or code caused all TCP flows to match on the entire TCP
  // source or destination port". With the bug fixed (default), the port
  // trie keeps working even with ICMP rules installed.
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.staged_lookup = true;
  cfg.port_prefix_tracking = true;
  RuleSet rs(cfg);
  rs.add(MatchBuilder().icmp().icmp_type(3).icmp_code(4), 90, 1);
  rs.add(MatchBuilder().tcp().tp_dst(25), 100, 2);
  rs.add(MatchBuilder().ip(), 1, 3);
  FlowWildcards wc;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(5, 5, 5, 5), 1000, 54321), &wc);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 3);
  EXPECT_FALSE(wc.is_exact(FieldId::kTpDst))
      << "ICMP rules must not defeat port prefix tracking";
}

TEST(WildcardsTest, IcmpBugModeReproducesOutlierSymptom) {
  // With the injected bug, the same table forces full port unwildcarding —
  // this is the Figure 7 outlier behaviour.
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.staged_lookup = true;
  cfg.port_prefix_tracking = true;
  cfg.icmp_port_trie_bug = true;
  RuleSet rs(cfg);
  rs.add(MatchBuilder().icmp().icmp_type(3).icmp_code(4), 90, 1);
  rs.add(MatchBuilder().tcp().tp_dst(25), 100, 2);
  rs.add(MatchBuilder().ip(), 1, 3);
  FlowWildcards wc;
  ASSERT_NE(
      rs.classifier().lookup(tcp_packet(Ipv4(5, 5, 5, 5), 1000, 54321), &wc),
      nullptr);
  EXPECT_TRUE(wc.is_exact(FieldId::kTpDst));
}

TEST(WildcardsTest, AllOptimizationsComposeOnPaperTable) {
  RuleSet rs;  // all optimizations on
  add_paper_table(rs);
  // Packet matching flow #2: ports stay wildcarded, dst is a /16-ish prefix.
  {
    FlowWildcards wc;
    const Rule* r =
        rs.classifier().lookup(tcp_packet(Ipv4(11, 1, 3, 3), 99, 80), &wc);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(static_cast<const TestRule*>(r)->id, 2);
    EXPECT_FALSE(wc.has_field(FieldId::kTpSrc));
    EXPECT_FALSE(wc.has_field(FieldId::kTpDst));
    EXPECT_LE(wc.prefix_len(FieldId::kNwDst), 16);
  }
  // Packet in 9.1.1/24 but not 9.1.1.1: prefix tracking skips flow #3's /32
  // tuple, so ports stay wildcarded and the address is narrower than /32.
  {
    FlowWildcards wc;
    const Rule* r =
        rs.classifier().lookup(tcp_packet(Ipv4(9, 1, 1, 200), 99, 80), &wc);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(static_cast<const TestRule*>(r)->id, 4);
    EXPECT_FALSE(wc.has_field(FieldId::kTpSrc));
    EXPECT_LT(wc.prefix_len(FieldId::kNwDst), 32);
  }
  // The exact ACL packet still matches fully.
  {
    FlowWildcards wc;
    const Rule* r =
        rs.classifier().lookup(tcp_packet(Ipv4(9, 1, 1, 1), 10, 10), &wc);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(static_cast<const TestRule*>(r)->id, 3);
  }
}

}  // namespace
}  // namespace ovs
