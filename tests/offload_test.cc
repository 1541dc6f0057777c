// Simulated NIC hardware-offload tier tests (DESIGN.md §13): the table
// itself, earned-slot placement with hysteresis, revalidation keeping slots
// coherent, crash/restart adopt-or-flush, and the per-worker copies of the
// table a multi-worker datapath keeps in lockstep.
#include "datapath/offload_table.h"

#include <gtest/gtest.h>

#include "datapath/datapath.h"
#include "datapath/dp_check.h"
#include "sim/clock.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

Packet make_udp(uint8_t dst_net, uint16_t sport = 40000) {
  Packet p;
  FlowKey& k = p.key;
  k.set_in_port(1);
  k.set_eth_src(EthAddr(0x02, 0, 0, 0, 0, 1));
  k.set_eth_dst(EthAddr(0x02, 0, 0, 0, 0, 2));
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kUdp);
  k.set_nw_src(Ipv4(1, 2, 3, 4));
  k.set_nw_dst(Ipv4(dst_net, 0, 0, 1));
  k.set_tp_src(sport);
  k.set_tp_dst(5001);
  p.size_bytes = 100;
  return p;
}

// --- The table itself -------------------------------------------------------

TEST(OffloadTableTest, InstallProbeEvict) {
  OffloadTable t(2);
  int owner_a = 0, owner_b = 0, owner_c = 0;
  const Match ma = MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8);
  const Match mb = MatchBuilder().ip().nw_dst_prefix(Ipv4(20, 0, 0, 0), 8);

  EXPECT_TRUE(t.install(ma, DpActions().output(2), &owner_a, &owner_a, 5));
  EXPECT_FALSE(t.install(ma, DpActions().output(2), &owner_a, &owner_a, 5))
      << "an owner holds at most one slot";
  EXPECT_TRUE(t.install(mb, DpActions().output(3), &owner_b, &owner_b, 6));
  EXPECT_FALSE(t.install(ma, DpActions().output(4), &owner_c, &owner_c, 7))
      << "table full";
  EXPECT_EQ(t.size(), 2u);

  const OffloadTable::Entry* e = t.probe(make_udp(10).key);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, &owner_a);
  EXPECT_EQ(e->actions, DpActions().output(2));
  EXPECT_EQ(e->installed_ns, 5u);
  EXPECT_EQ(t.probe(make_udp(30).key), nullptr);

  EXPECT_TRUE(t.sync_actions(&owner_a, DpActions().output(9)));
  EXPECT_EQ(t.probe(make_udp(10).key)->actions, DpActions().output(9));

  EXPECT_TRUE(t.evict(&owner_a));
  EXPECT_FALSE(t.evict(&owner_a));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.probe(make_udp(10).key), nullptr);
  ASSERT_NE(t.probe(make_udp(20).key), nullptr);
}

TEST(OffloadTableTest, LockstepCopiesNameSlotsAlike) {
  // Two workers' copies of the table: one owner (the flow handle), one
  // replica each (the entry a hit on that copy credits).
  OffloadTable t0(4), t1(4);
  int owner = 0, replica1 = 0;
  const Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8);
  ASSERT_TRUE(t0.install(m, DpActions().output(2), &owner, &owner, 0));
  ASSERT_TRUE(t1.install(m, DpActions().output(2), &owner, &replica1, 0));
  const OffloadTable::Entry* e0 = t0.probe(make_udp(10).key);
  const OffloadTable::Entry* e1 = t1.probe(make_udp(10).key);
  ASSERT_NE(e0, nullptr);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e0->owner, e1->owner);
  EXPECT_EQ(e1->replica, &replica1);

  // Each copy counts its own hits.
  e1->hits.fetch_add(7, std::memory_order_relaxed);
  EXPECT_EQ(t0.find(&owner)->hits.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(t1.find(&owner)->hits.load(std::memory_order_relaxed), 7u);

  // An orphaned slot names the same (nonexistent) owner in every copy, so
  // one flush by that owner clears them all.
  ASSERT_TRUE(t0.corrupt(0, OffloadTable::Corruption::kOrphanSlot));
  ASSERT_TRUE(t1.corrupt(0, OffloadTable::Corruption::kOrphanSlot));
  const void* orphan = t0.probe(make_udp(10).key)->owner;
  EXPECT_NE(orphan, &owner);
  EXPECT_EQ(t1.probe(make_udp(10).key)->owner, orphan);
  EXPECT_TRUE(t0.evict(orphan));
  EXPECT_TRUE(t1.evict(orphan));
  EXPECT_EQ(t0.size() + t1.size(), 0u);
}

// --- Earned-slot placement through the Switch revalidator -------------------

class OffloadPlacementTest : public ::testing::Test {
 protected:
  void build(size_t slots, double min_ewma = 1.0,
             double challenge = 2.0, size_t workers = 0) {
    SwitchConfig cfg;
    cfg.offload_slots = slots;
    cfg.offload_min_ewma = min_ewma;
    cfg.offload_challenge_factor = challenge;
    cfg.datapath_workers = workers;
    sw_ = std::make_unique<Switch>(cfg);
    for (uint32_t p : {1u, 2u, 3u}) sw_->add_port(p);
    sw_->table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 10,
        OfActions().output(2));
    sw_->table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(20, 0, 0, 0), 8), 10,
        OfActions().output(3));
  }

  // One traffic interval: n_a packets to 10/8, n_b to 20/8, upcalls drained.
  void pump(size_t n_a, size_t n_b) {
    for (size_t i = 0; i < n_a; ++i) sw_->inject(make_udp(10), clock_.now());
    for (size_t i = 0; i < n_b; ++i) sw_->inject(make_udp(20), clock_.now());
    sw_->handle_upcalls(clock_.now());
  }

  // Advance one dump interval and run the revalidator (placement included).
  void tick() {
    clock_.advance(kSecond);
    sw_->run_maintenance(clock_.now());
  }

  std::unique_ptr<Switch> sw_;
  VirtualClock clock_;
};

TEST_F(OffloadPlacementTest, HotFlowsEarnFreeSlots) {
  build(/*slots=*/4);
  pump(50, 5);
  EXPECT_EQ(sw_->backend().offload_size(), 0u);  // not yet earned
  tick();
  EXPECT_EQ(sw_->backend().offload_size(), 2u);
  EXPECT_EQ(sw_->counters().offload_installs, 2u);

  // The offload tier answers before the EMC, from its own snapshot, and
  // still delivers to the right port.
  const auto tx2 = sw_->port_stats(2).tx_packets;
  EXPECT_EQ(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);
  EXPECT_EQ(sw_->port_stats(2).tx_packets, tx2 + 1);
  EXPECT_EQ(sw_->inject(make_udp(20), clock_.now()),
            Datapath::Path::kOffloadHit);

  // Offload hits credit the owner megaflow, so the ledger stays conserved
  // and slot hits never exceed owner packets.
  EXPECT_TRUE(run_dp_check(sw_->backend()).ok());
  EXPECT_GT(sw_->backend().stats().offload_hits, 0u);
}

TEST_F(OffloadPlacementTest, ColdFlowsBelowMinEwmaNeverEarn) {
  build(/*slots=*/4, /*min_ewma=*/10.0);
  for (int round = 0; round < 3; ++round) {
    pump(50, 2);  // B averages 2 packets/interval < 10
    tick();
  }
  EXPECT_EQ(sw_->backend().offload_size(), 1u);
  EXPECT_EQ(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);
  EXPECT_NE(sw_->inject(make_udp(20), clock_.now()),
            Datapath::Path::kOffloadHit);
}

TEST_F(OffloadPlacementTest, ColdIncumbentIsEvictedWhenItDecays) {
  build(/*slots=*/4, /*min_ewma=*/4.0);
  pump(50, 0);
  tick();
  ASSERT_EQ(sw_->backend().offload_size(), 1u);
  // A goes quiet: its EWMA halves every pass (alpha 0.5) until it falls
  // below min_ewma and the slot is reclaimed with no challenger needed.
  for (int round = 0; round < 8 && sw_->backend().offload_size() > 0;
       ++round)
    tick();
  EXPECT_EQ(sw_->backend().offload_size(), 0u);
  EXPECT_GE(sw_->counters().offload_evicts, 1u);
}

TEST_F(OffloadPlacementTest, HysteresisDampsSlotChurn) {
  build(/*slots=*/1, /*min_ewma=*/1.0, /*challenge=*/2.0);
  pump(50, 10);
  tick();  // A takes the single slot
  ASSERT_EQ(sw_->backend().offload_size(), 1u);
  EXPECT_EQ(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);

  // B edges ahead of A but not past the 2x hysteresis bar: no churn.
  pump(50, 60);
  tick();
  EXPECT_EQ(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);
  EXPECT_EQ(sw_->counters().offload_evicts, 0u);

  // B becomes clearly hotter; within a few passes its EWMA clears the bar
  // and it displaces A.
  for (int round = 0; round < 6; ++round) {
    pump(0, 400);
    tick();
  }
  EXPECT_EQ(sw_->inject(make_udp(20), clock_.now()),
            Datapath::Path::kOffloadHit);
  EXPECT_NE(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);
  EXPECT_GE(sw_->counters().offload_evicts, 1u);
  EXPECT_EQ(sw_->backend().offload_size(), 1u);
}

TEST_F(OffloadPlacementTest, DisabledTierStaysInert) {
  build(/*slots=*/0);
  pump(50, 50);
  tick();
  EXPECT_FALSE(sw_->backend().offload_enabled());
  EXPECT_EQ(sw_->backend().offload_capacity(), 0u);
  EXPECT_EQ(sw_->counters().offload_installs, 0u);
  EXPECT_EQ(sw_->backend().stats().offload_hits, 0u);
  EXPECT_NE(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);
}

// --- Revalidation keeps offloaded copies coherent ---------------------------

TEST_F(OffloadPlacementTest, RuleChangeRepairsOffloadedCopySamePass) {
  build(/*slots=*/4);
  pump(50, 0);
  tick();
  ASSERT_EQ(sw_->backend().offload_size(), 1u);

  // Rewire 10/8 to port 3. The megaflow's actions are stale until the next
  // revalidation pass, which must repair the offloaded snapshot in the same
  // pass it repairs the megaflow — no window where hardware forwards to the
  // old port after the pass completes.
  size_t n = 0;
  ASSERT_EQ(sw_->del_flows("ip, nw_dst=10.0.0.0/8", &n), "");
  ASSERT_EQ(n, 1u);
  ASSERT_EQ(sw_->add_flow("table=0, priority=10, ip, nw_dst=10.0.0.0/8, "
                          "actions=output:3"),
            "");
  tick();

  const auto tx3 = sw_->port_stats(3).tx_packets;
  EXPECT_EQ(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);
  EXPECT_EQ(sw_->port_stats(3).tx_packets, tx3 + 1);
  EXPECT_TRUE(run_dp_check(sw_->backend()).ok());
}

// --- Crash / restart: adopt-or-flush ----------------------------------------

TEST_F(OffloadPlacementTest, RestartAdoptsCoherentSlots) {
  build(/*slots=*/4);
  pump(50, 30);
  tick();
  ASSERT_EQ(sw_->backend().offload_size(), 2u);

  // The daemon dies; the NIC keeps its programmed slots and keeps
  // forwarding from them while userspace is gone.
  sw_->crash();
  ASSERT_NE(sw_->lifecycle(), LifecycleState::kServing);
  EXPECT_EQ(sw_->backend().offload_size(), 2u);
  EXPECT_EQ(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);

  clock_.advance(kSecond);
  ASSERT_TRUE(sw_->restart(clock_.now()));
  EXPECT_EQ(sw_->counters().offload_adopted, 2u);
  EXPECT_EQ(sw_->counters().offload_flushed, 0u);
  EXPECT_EQ(sw_->backend().offload_size(), 2u);
  EXPECT_EQ(sw_->inject(make_udp(10), clock_.now()),
            Datapath::Path::kOffloadHit);
  EXPECT_TRUE(run_dp_check(sw_->backend()).ok());
}

TEST_F(OffloadPlacementTest, RestartFlushesIncoherentSlot) {
  build(/*slots=*/4);
  pump(50, 30);
  tick();
  ASSERT_EQ(sw_->backend().offload_size(), 2u);

  sw_->crash();
  // While the daemon is down, one slot is re-keyed to a flow that no longer
  // exists (the corruption the adopt-or-flush sweep exists to catch; the
  // backend's own coherence hooks cannot have seen it).
  ASSERT_TRUE(sw_->backend().offload_corrupt(
      0, OffloadTable::Corruption::kOrphanSlot));

  clock_.advance(kSecond);
  ASSERT_TRUE(sw_->restart(clock_.now()));
  EXPECT_EQ(sw_->counters().offload_flushed, 1u);
  EXPECT_EQ(sw_->counters().offload_adopted, 1u);
  EXPECT_EQ(sw_->backend().offload_size(), 1u);
  EXPECT_TRUE(run_dp_check(sw_->backend()).ok());
}

// --- Worker shards: one table copy per worker ------------------------------

TEST(OffloadMtTest, SlotVisibleToEveryWorkerOnInstall) {
  DatapathConfig cfg;
  cfg.offload_slots = 4;
  cfg.microflow_enabled = false;  // keep the non-offload path deterministic
  Datapath be(cfg, 2);
  Datapath::FlowRef f = be.install(
      MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8),
      DpActions().output(2), 0);
  ASSERT_NE(f, nullptr);

  const Packet p = make_udp(10);
  EXPECT_EQ(be.receive(0, p, 0).path, Datapath::Path::kMegaflowHit);

  // Programmed into every worker's copy in the same call.
  ASSERT_TRUE(be.offload_install(f, 0));
  EXPECT_TRUE(be.offload_contains(f));
  EXPECT_EQ(be.receive(0, p, 0).path, Datapath::Path::kOffloadHit);
  EXPECT_EQ(be.receive(1, p, 0).path, Datapath::Path::kOffloadHit);

  // The dump sums the copies' hits, and each copy credited its own replica
  // of the owner megaflow (ledger conservation).
  uint64_t slot_hits = 0;
  for (const Datapath::OffloadSlot& s : be.offload_dump())
    slot_hits += s.hits;
  EXPECT_EQ(slot_hits, 2u);
  EXPECT_EQ(be.flow_packets(f), 3u);
  EXPECT_TRUE(run_dp_check(be).ok());

  // Eviction also reaches every copy at once.
  ASSERT_TRUE(be.offload_evict(f));
  EXPECT_EQ(be.receive(0, p, 0).path, Datapath::Path::kMegaflowHit);
  EXPECT_EQ(be.receive(1, p, 0).path, Datapath::Path::kMegaflowHit);
}

TEST(OffloadMtTest, ShardedSwitchServesOffloadHits) {
  SwitchConfig cfg;
  cfg.datapath_workers = 4;
  cfg.offload_slots = 8;
  Switch sw(cfg);
  for (uint32_t p : {1u, 2u}) sw.add_port(p);
  sw.table(0).add_flow(
      MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8), 10,
      OfActions().output(2));

  VirtualClock clock;
  std::vector<Packet> burst(16, make_udp(10));
  sw.inject_batch(burst, clock.now());
  sw.handle_upcalls(clock.now());
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // placement
  ASSERT_EQ(sw.backend().offload_size(), 1u);

  const auto before = sw.backend().stats().offload_hits;
  sw.inject_batch(burst, clock.now());
  EXPECT_EQ(sw.backend().stats().offload_hits, before + burst.size());
  EXPECT_TRUE(run_dp_check(sw.backend()).ok());
}

}  // namespace
}  // namespace ovs
