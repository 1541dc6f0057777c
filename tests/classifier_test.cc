// Unit tests for the tuple space search classifier (paper §3.2, §5).
#include "classifier/classifier.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ovs {
namespace {

using testutil::RuleSet;
using testutil::TestRule;

FlowKey tcp_packet(Ipv4 dst, uint16_t sport, uint16_t dport) {
  FlowKey k;
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kTcp);
  k.set_nw_src(Ipv4(1, 2, 3, 4));
  k.set_nw_dst(dst);
  k.set_tp_src(sport);
  k.set_tp_dst(dport);
  return k;
}

TEST(ClassifierTest, EmptyLookupReturnsNull) {
  Classifier c;
  FlowKey k;
  EXPECT_EQ(c.lookup(k), nullptr);
  EXPECT_EQ(c.rule_count(), 0u);
  EXPECT_EQ(c.tuple_count(), 0u);
}

TEST(ClassifierTest, ExactMatchBasics) {
  RuleSet rs;
  TestRule* r = rs.add(MatchBuilder().ip().nw_dst(Ipv4(9, 1, 1, 1)), 10, 1);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(9, 1, 1, 1), 1, 2)), r);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(9, 1, 1, 2), 1, 2)),
            nullptr);
}

TEST(ClassifierTest, OneTuplePerUniqueMask) {
  RuleSet rs;
  // Two rules with the same mask share a tuple; a third mask adds one.
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), 1);
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(2, 2, 2, 2)), 1);
  EXPECT_EQ(rs.classifier().tuple_count(), 1u);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(3, 0, 0, 0), 8), 1);
  EXPECT_EQ(rs.classifier().tuple_count(), 2u);
  EXPECT_EQ(rs.classifier().rule_count(), 3u);
}

TEST(ClassifierTest, HighestPriorityWinsAcrossTuples) {
  RuleSet rs;
  TestRule* lo = rs.add(MatchBuilder().ip(), 1, 1);
  TestRule* hi =
      rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 1, 1, 0), 24), 7, 2);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(9, 1, 1, 5), 1, 2)), hi);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(8, 0, 0, 1), 1, 2)), lo);
}

TEST(ClassifierTest, SameKeyDifferentPrioritiesChained) {
  RuleSet rs;
  TestRule* lo = rs.add(MatchBuilder().ip().nw_dst(Ipv4(5, 5, 5, 5)), 1, 1);
  TestRule* hi = rs.add(MatchBuilder().ip().nw_dst(Ipv4(5, 5, 5, 5)), 9, 2);
  TestRule* mid = rs.add(MatchBuilder().ip().nw_dst(Ipv4(5, 5, 5, 5)), 5, 3);
  EXPECT_EQ(rs.classifier().rule_count(), 3u);
  EXPECT_EQ(rs.classifier().tuple_count(), 1u);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(5, 5, 5, 5), 1, 2)), hi);
  rs.remove(hi);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(5, 5, 5, 5), 1, 2)), mid);
  rs.remove(mid);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(5, 5, 5, 5), 1, 2)), lo);
}

TEST(ClassifierTest, FindExact) {
  RuleSet rs;
  Match m = MatchBuilder().ip().nw_dst(Ipv4(5, 5, 5, 5));
  TestRule* r = rs.add(m, 5, 1);
  EXPECT_EQ(rs.classifier().find_exact(m, 5), r);
  EXPECT_EQ(rs.classifier().find_exact(m, 6), nullptr);
  Match other = MatchBuilder().ip().nw_dst(Ipv4(5, 5, 5, 6));
  EXPECT_EQ(rs.classifier().find_exact(other, 5), nullptr);
}

TEST(ClassifierTest, RemoveEmptiesTuple) {
  RuleSet rs;
  TestRule* r = rs.add(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), 1);
  EXPECT_EQ(rs.classifier().tuple_count(), 1u);
  rs.remove(r);
  EXPECT_EQ(rs.classifier().tuple_count(), 0u);
  EXPECT_EQ(rs.classifier().rule_count(), 0u);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(1, 1, 1, 1), 1, 2)),
            nullptr);
}

TEST(ClassifierTest, CatchAllRuleMatchesEverything) {
  RuleSet rs;
  TestRule* all = rs.add(Match{}, 0, 1);
  FlowKey anything;
  anything.set_eth_type(0x1234);
  EXPECT_EQ(rs.classifier().lookup(anything), all);
}

// --- Priority sorting (§5.2) -----------------------------------------------

TEST(ClassifierTest, PrioritySortingTerminatesEarly) {
  ClassifierConfig cfg;
  cfg.staged_lookup = false;
  cfg.prefix_tracking = false;
  cfg.port_prefix_tracking = false;
  RuleSet rs(cfg);
  // Tuple A: pri 100 (matches). Tuple B: pri_max 10. Tuple C: pri_max 5.
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(9, 9, 9, 9)), 100, 1);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8), 10, 2);
  rs.add(MatchBuilder().ip().nw_src_prefix(Ipv4(0, 0, 0, 0), 0), 5, 3);

  LookupCounts n;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(9, 9, 9, 9), 1, 2), nullptr, &n);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 1);
  // Only the first (highest pri_max) tuple may be searched.
  EXPECT_EQ(n.searched, 1u);
}

TEST(ClassifierTest, NoPrioritySortingSearchesAllTuples) {
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  RuleSet rs(cfg);
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(9, 9, 9, 9)), 100, 1);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8), 10, 2);
  rs.add(MatchBuilder().ip().nw_src_prefix(Ipv4(0, 0, 0, 0), 0), 5, 3);

  LookupCounts n;
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(9, 9, 9, 9), 1, 2), nullptr, &n);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 1);  // still correct result
  EXPECT_EQ(n.searched, 3u);
}

TEST(ClassifierTest, PrioritySortingStillFindsLowerPriorityMatch) {
  RuleSet rs;
  TestRule* lo =
      rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(8, 0, 0, 0), 8), 1, 1);
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(9, 9, 9, 9)), 100, 2);
  EXPECT_EQ(rs.classifier().lookup(tcp_packet(Ipv4(8, 1, 1, 1), 1, 2)), lo);
}

// --- Partitioning (§5.5) ----------------------------------------------------

TEST(ClassifierTest, MetadataPartitionSkipsTuples) {
  ClassifierConfig cfg;
  cfg.staged_lookup = false;  // isolate partitioning
  RuleSet rs(cfg);
  // Pipeline-stage style rules: exact metadata + L4 match. The metadata=2
  // tuple gets the higher priority so priority sorting visits it first and
  // the partition check — not early termination — must skip it.
  rs.add(MatchBuilder().metadata(1).tcp().tp_dst(80), 10, 1);
  rs.add(MatchBuilder().metadata(2).tcp().tp_src(22), 20, 2);

  FlowKey pkt = tcp_packet(Ipv4(9, 9, 9, 9), 5, 80);
  pkt.set_metadata(1);
  LookupCounts n;
  const Rule* r = rs.classifier().lookup(pkt, nullptr, &n);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 1);
  // The metadata=2 tuple must be skipped without a hash probe.
  EXPECT_EQ(n.searched, 1u);
  EXPECT_EQ(n.skipped, 1u);
}

TEST(ClassifierTest, PartitionSkipUnwildcardsMetadata) {
  ClassifierConfig cfg;
  cfg.staged_lookup = false;
  RuleSet rs(cfg);
  rs.add(MatchBuilder().metadata(2).tcp().tp_src(22), 10, 1);
  FlowKey pkt = tcp_packet(Ipv4(9, 9, 9, 9), 22, 80);
  pkt.set_metadata(1);
  FlowWildcards wc;
  EXPECT_EQ(rs.classifier().lookup(pkt, &wc), nullptr);
  // The skip decision depended on metadata, so it must appear in the mask.
  EXPECT_TRUE(wc.is_exact(FieldId::kMetadata));
  // And because of the skip, L4 must stay wildcarded.
  EXPECT_FALSE(wc.has_field(FieldId::kTpSrc));
}

// --- first_match_only (megaflow-cache mode, §4.2) ---------------------------

TEST(ClassifierTest, FirstMatchOnlyTerminatesOnAnyMatch) {
  ClassifierConfig cfg;
  cfg.first_match_only = true;
  RuleSet rs(cfg);
  // Disjoint entries, as userspace installs them into the megaflow cache.
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), 0, 1);
  rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(2, 0, 0, 0), 8), 0, 2);
  rs.add(MatchBuilder().arp(), 0, 3);

  const Rule* r = rs.classifier().lookup(tcp_packet(Ipv4(2, 5, 5, 5), 1, 2));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 2);
}

// --- Update characteristics -------------------------------------------------

TEST(ClassifierTest, UpdatesAreCheapManyRules) {
  // O(1) updates (§3.2): inserting 100k rules into one tuple must not blow
  // up; this is a smoke test that also exercises table growth.
  RuleSet rs;
  for (uint32_t i = 0; i < 100000; ++i)
    rs.add(MatchBuilder().ip().nw_dst(Ipv4(i | 0x0a000000u)), 1, (int)i);
  EXPECT_EQ(rs.classifier().rule_count(), 100000u);
  EXPECT_EQ(rs.classifier().tuple_count(), 1u);
  const Rule* r =
      rs.classifier().lookup(tcp_packet(Ipv4(0x0a000000u | 77777), 1, 2));
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(static_cast<const TestRule*>(r)->id, 77777);
}

TEST(ClassifierTest, ForEachRuleVisitsAll) {
  RuleSet rs;
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), 1, 1);
  rs.add(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), 2, 2);  // same key
  rs.add(MatchBuilder().arp(), 3, 3);
  int count = 0, id_sum = 0;
  rs.classifier().for_each_rule([&](const Rule* r) {
    ++count;
    id_sum += static_cast<const TestRule*>(r)->id;
  });
  EXPECT_EQ(count, 3);
  EXPECT_EQ(id_sum, 6);
}

}  // namespace
}  // namespace ovs
