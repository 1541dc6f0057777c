// Tests for the simulated kernel datapath: two-level cache + upcalls (§4).
#include "datapath/datapath.h"

#include <gtest/gtest.h>

#include "packet/match.h"
#include "sim/clock.h"
#include "test_util.h"

namespace ovs {
namespace {

Packet tcp_pkt(Ipv4 dst, uint16_t sport, uint16_t dport) {
  Packet p;
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(1, 1, 1, 1));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 100;
  return p;
}

TEST(DatapathTest, MissQueuesUpcall) {
  Datapath dp;
  testutil::UpcallCollector up(dp);
  auto rx = dp.receive(tcp_pkt(Ipv4(9, 9, 9, 9), 1, 2), 0);
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);
  EXPECT_EQ(rx.actions, nullptr);
  ASSERT_EQ(up.pkts.size(), 1u);
  EXPECT_EQ(up.pkts[0].key.nw_dst(), Ipv4(9, 9, 9, 9));
  EXPECT_EQ(dp.stats().upcall_drops, 0u);
}

TEST(DatapathTest, MegaflowThenMicroflowHit) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  dp.install(m, DpActions().output(2), 0);

  // First packet: megaflow hit (microflow cold), installs the EMC entry.
  auto rx1 = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 10);
  EXPECT_EQ(rx1.path, Datapath::Path::kMegaflowHit);
  ASSERT_NE(rx1.actions, nullptr);
  EXPECT_EQ(rx1.actions->to_string(), "output:2");

  // Same microflow again: EMC hit.
  auto rx2 = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 20);
  EXPECT_EQ(rx2.path, Datapath::Path::kMicroflowHit);

  // Different connection under the same megaflow: megaflow hit first.
  auto rx3 = dp.receive(tcp_pkt(Ipv4(9, 8, 7, 6), 50, 60), 30);
  EXPECT_EQ(rx3.path, Datapath::Path::kMegaflowHit);

  EXPECT_EQ(dp.stats().microflow_hits, 1u);
  EXPECT_EQ(dp.stats().megaflow_hits, 2u);
  EXPECT_EQ(dp.stats().misses, 0u);
}

TEST(DatapathTest, EntryStatsAccumulate) {
  Datapath dp;
  MegaflowEntry* e =
      dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  dp.receive(tcp_pkt(Ipv4(1, 2, 3, 4), 1, 2), 100);
  dp.receive(tcp_pkt(Ipv4(1, 2, 3, 4), 1, 2), 200);
  EXPECT_EQ(e->packets(), 2u);
  EXPECT_EQ(e->bytes(), 200u);
  EXPECT_EQ(e->used_ns(), 200u);
  EXPECT_EQ(e->created_ns(), 0u);
}

TEST(DatapathTest, DuplicateInstallReturnsExisting) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1));
  MegaflowEntry* a = dp.install(m, DpActions().output(1), 0);
  MegaflowEntry* b = dp.install(m, DpActions().output(9), 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dp.flow_count(), 1u);
  EXPECT_EQ(a->actions().to_string(), "output:1");  // not replaced
}

TEST(DatapathTest, StaleMicroflowEntryCorrectedOnUse) {
  // §6: "a stale microflow cache entry is detected and corrected the first
  // time a packet matches it".
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst(Ipv4(9, 1, 2, 3));
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);
  dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 0);   // megaflow hit
  dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 1);   // EMC hit
  dp.remove(e);                                     // flow deleted
  auto rx = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 2);
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);  // EMC entry detected stale
  EXPECT_EQ(dp.stats().stale_microflow_hits, 1u);
  dp.purge_dead();
  auto rx2 = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 3);
  EXPECT_EQ(rx2.path, Datapath::Path::kMiss);
}

TEST(DatapathTest, PurgeDeadSweepsMicroflowPointers) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst(Ipv4(9, 1, 2, 3));
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);
  dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 0);
  dp.remove(e);
  // Purge without the EMC slot ever being revisited: must not crash and the
  // next packet must miss cleanly (the sweep cleared the slot).
  dp.purge_dead();
  auto rx = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 1);
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);
}

TEST(DatapathTest, MicroflowDisabled) {
  DatapathConfig cfg;
  cfg.microflow_enabled = false;
  Datapath dp(cfg);
  dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  dp.receive(tcp_pkt(Ipv4(1, 1, 1, 1), 1, 2), 0);
  auto rx = dp.receive(tcp_pkt(Ipv4(1, 1, 1, 1), 1, 2), 1);
  EXPECT_EQ(rx.path, Datapath::Path::kMegaflowHit);  // never EMC
  EXPECT_EQ(dp.stats().microflow_hits, 0u);
}

TEST(DatapathTest, TuplesSearchedCountsMasks) {
  DatapathConfig cfg;
  cfg.microflow_enabled = false;
  Datapath dp(cfg);
  // Three distinct masks -> up to 3 hash tables probed per packet.
  dp.install(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), DpActions(), 0);
  dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(2, 0, 0, 0), 8),
             DpActions().output(1), 0);
  dp.install(MatchBuilder().arp(), DpActions().output(2), 0);
  EXPECT_EQ(dp.mask_count(), 3u);
  auto rx = dp.receive(tcp_pkt(Ipv4(7, 7, 7, 7), 1, 2), 0);  // matches none
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);
  EXPECT_EQ(rx.tuples_searched, 3u);
}

TEST(DatapathTest, UpcallQueueOverflowDrops) {
  // The sink's queue holds four; each upcall it refuses is a drop.
  Datapath dp;
  testutil::UpcallCollector up(dp, /*cap=*/4);
  for (uint16_t i = 0; i < 10; ++i)
    dp.receive(tcp_pkt(Ipv4(9, 9, 9, 9), i, 80), 0);
  EXPECT_EQ(up.pkts.size(), 4u);
  EXPECT_EQ(dp.stats().upcall_drops, 6u);
}

TEST(DatapathTest, UpdateActionsInPlace) {
  Datapath dp;
  MegaflowEntry* e =
      dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  dp.update_actions(e, DpActions().output(5));
  auto rx = dp.receive(tcp_pkt(Ipv4(1, 1, 1, 1), 1, 2), 0);
  ASSERT_NE(rx.actions, nullptr);
  EXPECT_EQ(rx.actions->to_string(), "output:5");
}

TEST(DatapathTest, DumpReturnsLiveEntriesOnly) {
  Datapath dp;
  MegaflowEntry* a =
      dp.install(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)),
                 DpActions().output(1), 0);
  dp.install(MatchBuilder().ip().nw_dst(Ipv4(2, 2, 2, 2)),
             DpActions().output(2), 0);
  EXPECT_EQ(dp.dump().size(), 2u);
  dp.remove(a);
  EXPECT_EQ(dp.dump().size(), 1u);
  EXPECT_EQ(dp.flow_count(), 1u);
}

TEST(DatapathTest, ManyConnectionsChurnEmc) {
  // Fill the EMC well past capacity; pseudo-random replacement must keep the
  // cache functional (no crashes, hits still possible).
  DatapathConfig cfg;
  cfg.microflow_sets = 64;
  cfg.microflow_ways = 2;
  Datapath dp(cfg);
  dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  for (uint32_t i = 0; i < 10000; ++i) {
    Packet p = tcp_pkt(Ipv4(0x0a000000u + (i % 997)), (uint16_t)(i % 63001),
                       80);
    dp.receive(p, i);
  }
  // Re-inject a recent microflow: should often hit the EMC.
  dp.reset_stats();
  for (uint32_t i = 9990; i < 10000; ++i) {
    Packet p = tcp_pkt(Ipv4(0x0a000000u + (i % 997)), (uint16_t)(i % 63001),
                       80);
    dp.receive(p, 20000 + i);
  }
  EXPECT_GT(dp.stats().microflow_hits + dp.stats().megaflow_hits, 0u);
  EXPECT_EQ(dp.stats().misses, 0u);
}

}  // namespace
}  // namespace ovs
