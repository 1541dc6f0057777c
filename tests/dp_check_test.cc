// Megaflow invariant checker tests (datapath/dp_check.h): targeted
// violations are detected and quarantined, healthy caches pass, and — the
// property test — every randomized table_gen workload the switch can
// produce keeps the datapath disjoint, EMC-coherent, and stats-conserving
// with one worker shard and with several.
#include "datapath/dp_check.h"

#include <gtest/gtest.h>

#include <string>

#include "sim/clock.h"
#include "util/rng.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

void expect_clean(const Switch& sw, const std::string& context) {
  const DpCheckReport r = run_dp_check(sw.backend());
  EXPECT_TRUE(r.ok()) << context << ": overlaps=" << r.overlap_violations
                      << " dups=" << r.duplicate_keys
                      << " emc_dangling=" << r.emc_dangling_hints
                      << " stats=" << r.stats_violations
                      << (r.details.empty() ? "" : "; " + r.details[0]);
  EXPECT_EQ(r.flows_checked, sw.backend().flow_count());
}

// --- Targeted violations ----------------------------------------------------

TEST(DpCheckTest, EmptyAndSingleFlowCachesPass) {
  Datapath be;
  EXPECT_TRUE(run_dp_check(be).ok());
  be.install(MatchBuilder().ip(), DpActions().output(2), 0);
  const DpCheckReport r = run_dp_check(be);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.flows_checked, 1u);
}

TEST(DpCheckTest, DetectsCrossMaskOverlapAndQuarantinesLaterEntry) {
  Datapath be;
  // Entry A: ip dst 9/8. Entry B: any tcp. A tcp packet to 9.x matches
  // both, and the actions differ — exactly the misdelivery the kernel's
  // first-match semantics cannot tolerate.
  Datapath::FlowRef a = be.install(
      MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
      DpActions().output(2), 0);
  Datapath::FlowRef b =
      be.install(MatchBuilder().tcp(), DpActions().output(3), 0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  DpCheckReport r = run_dp_check(be);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.overlap_violations, 1u);
  ASSERT_EQ(r.quarantine.size(), 1u);
  EXPECT_EQ(r.quarantine[0], b);  // the later entry of the pair goes

  EXPECT_EQ(quarantine_flows(be, r), 1u);
  EXPECT_EQ(be.flow_count(), 1u);
  EXPECT_TRUE(run_dp_check(be).ok());
}

TEST(DpCheckTest, BenignOverlapIsCountedButNotQuarantined) {
  Datapath be;
  be.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
             DpActions().output(2), 0);
  be.install(MatchBuilder().tcp(), DpActions().output(2), 0);

  const DpCheckReport r = run_dp_check(be);
  EXPECT_TRUE(r.ok());  // same actions cannot misdeliver
  EXPECT_EQ(r.benign_overlaps, 1u);
  EXPECT_TRUE(r.quarantine.empty());

  DpCheckConfig strict;
  strict.quarantine_benign_overlaps = true;
  const DpCheckReport rs = run_dp_check(be, strict);
  EXPECT_EQ(rs.benign_overlaps, 1u);
  EXPECT_EQ(rs.quarantine.size(), 1u);
}

TEST(DpCheckTest, OverlapDetectionWorksOnShardedBackend) {
  Datapath be({}, 2);
  be.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
             DpActions().output(2), 0);
  be.install(MatchBuilder().tcp(), DpActions().output(3), 0);
  const DpCheckReport r = run_dp_check(be);
  EXPECT_EQ(r.overlap_violations, 1u);
  EXPECT_EQ(quarantine_flows(be, r), 1u);
  EXPECT_TRUE(run_dp_check(be).ok());
}

TEST(DpCheckTest, DisjointEntriesPassMaskPairProbing) {
  Datapath be;
  // Different masks whose regions cannot intersect: both constrain nw_dst
  // in their common mask to different values.
  be.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
             DpActions().output(2), 0);
  be.install(MatchBuilder().tcp().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8),
             DpActions().output(3), 0);
  const DpCheckReport r = run_dp_check(be);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.benign_overlaps, 0u);
  EXPECT_GE(r.mask_pairs_checked, 1u);
}

// --- Offload shadow coherence (DESIGN.md §13) -------------------------------

// Three mutation classes mirror OffloadTable::Corruption: a stale action
// snapshot, a slot whose owner is gone, and an inflated hit counter. The
// checker must catch each, and flushing the flagged slots must restore a
// clean report without touching the megaflows themselves.
class DpCheckOffloadTest : public ::testing::Test {
 protected:
  DpCheckOffloadTest() : be_([] {
    DatapathConfig cfg;
    cfg.offload_slots = 8;
    return cfg;
  }()) {
    a_ = be_.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
                     DpActions().output(2), 0);
    b_ = be_.install(MatchBuilder().tcp().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8),
                     DpActions().output(3), 0);
    EXPECT_TRUE(be_.offload_install(a_, 0));
    EXPECT_TRUE(be_.offload_install(b_, 0));
  }

  void expect_caught(uint64_t DpCheckReport::*field) {
    DpCheckReport r = run_dp_check(be_);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.*field, 1u);
    EXPECT_EQ(r.offload_flush.size(), 1u);
    EXPECT_TRUE(r.quarantine.empty());  // repair is slot flush, not delete
    quarantine_flows(be_, r);
    EXPECT_EQ(be_.flow_count(), 2u);
    EXPECT_EQ(be_.offload_size(), 1u);
    EXPECT_TRUE(run_dp_check(be_).ok());
  }

  Datapath be_;
  Datapath::FlowRef a_ = nullptr;
  Datapath::FlowRef b_ = nullptr;
};

TEST_F(DpCheckOffloadTest, CoherentSlotsPass) {
  const DpCheckReport r = run_dp_check(be_);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.offload_checked, 2u);
}

TEST_F(DpCheckOffloadTest, CatchesStaleActionSnapshot) {
  ASSERT_TRUE(be_.offload_corrupt(0, OffloadTable::Corruption::kStaleActions));
  expect_caught(&DpCheckReport::offload_stale_actions);
}

TEST_F(DpCheckOffloadTest, CatchesDanglingSlotAfterMegaflowDelete) {
  // Bypass the datapath's auto-evict (remove() would flush the slot) with the
  // targeted corruption, modeling a reconciliation bug that re-keys a slot
  // to a dead owner.
  ASSERT_TRUE(be_.offload_corrupt(0, OffloadTable::Corruption::kOrphanSlot));
  expect_caught(&DpCheckReport::offload_dangling);
}

TEST_F(DpCheckOffloadTest, CatchesInflatedHitCounter) {
  ASSERT_TRUE(be_.offload_corrupt(0, OffloadTable::Corruption::kInflateHits));
  expect_caught(&DpCheckReport::offload_stat_violations);
}

TEST_F(DpCheckOffloadTest, BackendRemoveKeepsSlotsCoherent) {
  // The non-bypassed path: remove() auto-evicts the owner's slot, so no
  // dangling slot survives for the checker to find.
  be_.remove(a_);
  be_.purge_dead();
  EXPECT_EQ(be_.offload_size(), 1u);
  EXPECT_TRUE(run_dp_check(be_).ok());
}

TEST(DpCheckOffloadShardedTest, CatchesCorruptionOnShardedBackend) {
  DatapathConfig cfg;
  cfg.offload_slots = 8;
  Datapath be(cfg, 2);
  Datapath::FlowRef f = be.install(
      MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
      DpActions().output(2), 0);
  ASSERT_TRUE(be.offload_install(f, 0));
  for (OffloadTable::Corruption kind :
       {OffloadTable::Corruption::kStaleActions,
        OffloadTable::Corruption::kOrphanSlot,
        OffloadTable::Corruption::kInflateHits}) {
    ASSERT_TRUE(be.offload_corrupt(0, kind));
    DpCheckReport r = run_dp_check(be);
    EXPECT_EQ(r.offload_stale_actions + r.offload_dangling +
                  r.offload_stat_violations,
              1u);
    // The flush evicts the slot from every worker's copy: both workers fall
    // back to the megaflow path.
    quarantine_flows(be, r);
    EXPECT_EQ(be.offload_size(), 0u);
    EXPECT_TRUE(run_dp_check(be).ok());
    Datapath::RxResult res;
    Packet p;
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_dst(Ipv4(9, 1, 1, 1));
    for (size_t w = 0; w < be.n_workers(); ++w) {
      be.process_batch(w, std::span<const Packet>(&p, 1), 0, &res);
      EXPECT_NE(res.path, Datapath::Path::kOffloadHit) << "worker " << w;
    }
    ASSERT_TRUE(be.offload_install(f, 0));
  }
}

// --- Property test: randomized workloads keep the invariant -----------------

// Drives a tenant workload from the table_gen NVP pipeline (randomized
// topology, ACL mix, and traffic) and asserts the checker passes at every
// maintenance boundary and at the end. Megaflow disjointness is a
// *construction* property of translation + wildcard tracking (§5); this is
// the regression net under it.
void run_nvp_property(uint64_t seed, size_t workers) {
  SwitchConfig cfg;
  cfg.datapath_workers = workers;
  Switch sw(cfg);
  NvpConfig nvp;
  nvp.n_tenants = 3;
  nvp.vms_per_tenant = 4;
  nvp.acl_tenant_fraction = 0.6;
  nvp.stateful_acl_tenants = true;
  nvp.seed = seed;
  const NvpTopology topo = install_nvp_pipeline(sw, nvp);

  Rng rng(seed ^ 0xD15C);
  VirtualClock clock;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 150; ++i) {
      const NvpVm& a = topo.vms[rng.uniform(topo.vms.size())];
      const auto peers = topo.tenant_vms(a.tenant);
      const NvpVm& b = *peers[rng.uniform(peers.size())];
      sw.inject(nvp_packet(a, b, static_cast<uint16_t>(
                                     rng.range(1024, 60000)),
                           static_cast<uint16_t>(
                               rng.chance(0.3) ? 22 : 80),
                           rng.chance(0.9) ? ipproto::kTcp : ipproto::kUdp),
                clock.now());
      if ((i & 31) == 31) sw.handle_upcalls(clock.now());
    }
    sw.handle_upcalls(clock.now());
    clock.advance(200 * kMillisecond);
    if (round % 4 == 3) {
      sw.run_maintenance(clock.now());
      expect_clean(sw, "seed " + std::to_string(seed) + " round " +
                           std::to_string(round));
    }
  }
  ASSERT_GT(sw.backend().flow_count(), 0u);
  expect_clean(sw, "seed " + std::to_string(seed) + " final");
}

TEST(DpCheckPropertyTest, RandomizedNvpWorkloadsStayDisjointSingle) {
  for (uint64_t seed : {11ull, 29ull, 47ull}) run_nvp_property(seed, 0);
}

TEST(DpCheckPropertyTest, RandomizedNvpWorkloadsStayDisjointSharded) {
  for (uint64_t seed : {11ull, 29ull}) run_nvp_property(seed, 4);
}

// After a crash/restart cycle the reconciled cache must still satisfy the
// invariant (restart() itself gates on this; the external check makes the
// property visible to the test suite).
TEST(DpCheckPropertyTest, InvariantHoldsAcrossCrashAndReconcile) {
  SwitchConfig cfg;
  Switch sw(cfg);
  NvpConfig nvp;
  nvp.seed = 99;
  const NvpTopology topo = install_nvp_pipeline(sw, nvp);

  Rng rng(0xC4A5);
  VirtualClock clock;
  auto drive = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < 100; ++i) {
        const NvpVm& a = topo.vms[rng.uniform(topo.vms.size())];
        const auto peers = topo.tenant_vms(a.tenant);
        const NvpVm& b = *peers[rng.uniform(peers.size())];
        sw.inject(nvp_packet(a, b,
                             static_cast<uint16_t>(rng.range(1024, 60000)),
                             80),
                  clock.now());
      }
      sw.handle_upcalls(clock.now());
      clock.advance(100 * kMillisecond);
    }
  };
  drive(6);
  ASSERT_GT(sw.backend().flow_count(), 0u);
  expect_clean(sw, "pre-crash");

  sw.crash();
  ASSERT_NE(sw.lifecycle(), LifecycleState::kServing);
  clock.advance(kSecond);
  ASSERT_TRUE(sw.restart(clock.now()));
  expect_clean(sw, "post-reconcile");
  drive(3);
  expect_clean(sw, "post-recovery traffic");
}

}  // namespace
}  // namespace ovs
