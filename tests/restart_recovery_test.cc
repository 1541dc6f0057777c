// Crash/restart lifecycle tests (DESIGN.md §9): the daemon's userspace
// state dies at crash() while the datapath keeps forwarding its cache;
// restart() rebuilds the tables from the durable snapshot, reconciles the
// surviving megaflows (adopt / repair / delete), gates on the invariant
// checker, and only then re-enables installs. The outcome is deterministic
// for a fixed seed and independent of the datapath backend and the number
// of revalidator plan threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "test_util.h"
#include "util/fault.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

using testutil::canonical_flows;

Packet prefix_pkt(uint32_t in_port, uint8_t dst_hi, uint8_t dst_lo,
                  uint16_t sport) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(1, 2, 3, 4));
  p.key.set_nw_dst(Ipv4(10, dst_hi, dst_lo, 5));
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(443);
  return p;
}

// A switch with n /24 forwarding rules; traffic over them builds one
// megaflow per (rule, in_port) pair.
void install_prefix_rules(Switch& sw, size_t n) {
  for (uint32_t p = 1; p <= 2; ++p) sw.add_port(p);
  for (uint32_t e = 100; e < 104; ++e) sw.add_port(e);
  for (size_t i = 0; i < n; ++i)
    sw.table(0).add_flow(
        MatchBuilder().tcp().nw_dst_prefix(
            Ipv4(10, static_cast<uint8_t>(i / 200),
                 static_cast<uint8_t>(i % 200), 0),
            24),
        10, OfActions().output(100 + static_cast<uint32_t>(i % 4)));
}

void warm_flows(Switch& sw, VirtualClock& clock, size_t n) {
  for (size_t i = 0; i < n; ++i)
    sw.inject(prefix_pkt(1 + static_cast<uint32_t>(i % 2),
                         static_cast<uint8_t>(i / 200),
                         static_cast<uint8_t>(i % 200),
                         static_cast<uint16_t>(2000 + i)),
              clock.now());
  sw.handle_upcalls(clock.now());
}

TEST(RestartRecoveryTest, CrashKeepsDatapathServingButRefusesUpcalls) {
  SwitchConfig cfg;
  Switch sw(cfg);
  install_prefix_rules(sw, 8);
  VirtualClock clock;
  warm_flows(sw, clock, 8);
  ASSERT_EQ(sw.backend().flow_count(), 8u);

  sw.crash();
  EXPECT_EQ(sw.lifecycle(), LifecycleState::kCrashed);
  EXPECT_EQ(sw.counters().userspace_crashes, 1u);

  // Cached flows still forward (the kernel module outlives the daemon)...
  const uint64_t tx0 = sw.counters().tx_packets;
  sw.inject(prefix_pkt(1, 0, 0, 2000), clock.now());
  EXPECT_EQ(sw.counters().tx_packets, tx0 + 1);

  // ...but a fresh connection's miss is refused, not queued.
  const uint64_t dropped0 = sw.counters().upcalls_dropped;
  sw.inject(prefix_pkt(1, 0, 199, 9999), clock.now());
  sw.handle_upcalls(clock.now());
  EXPECT_GT(sw.counters().upcalls_dropped, dropped0);
  EXPECT_EQ(sw.backend().flow_count(), 8u);
}

TEST(RestartRecoveryTest, CrashFoldsQueuedWorkIntoLossCounters) {
  FaultInjector fault(5);
  fault.set_probability(FaultPoint::kInstallTransient, 1.0);
  SwitchConfig cfg;
  cfg.fault = &fault;
  Switch sw(cfg);
  install_prefix_rules(sw, 4);
  VirtualClock clock;

  // Every install fails, so handled upcalls pile onto the retry queue;
  // two more misses sit unhandled in the upcall queue at crash time.
  warm_flows(sw, clock, 2);
  ASSERT_GT(sw.retry_queue_depth(), 0u);
  sw.inject(prefix_pkt(1, 0, 2, 7000), clock.now());
  sw.inject(prefix_pkt(1, 0, 3, 7001), clock.now());

  const Switch::Counters& c = sw.counters();
  const uint64_t pending_retries = sw.retry_queue_depth();
  const uint64_t dropped0 = c.upcalls_dropped;
  sw.crash();
  EXPECT_EQ(sw.retry_queue_depth(), 0u);
  EXPECT_EQ(c.retry_abandoned, pending_retries);
  EXPECT_EQ(c.upcalls_dropped, dropped0 + 2);
  // The ledger still balances (see fault_injection_test invariants).
  EXPECT_EQ(c.upcalls_handled + c.upcalls_retried,
            c.flow_setups + c.setup_dups + c.install_fails);
  EXPECT_EQ(c.install_fails,
            c.upcalls_retried + sw.retry_queue_depth() + c.retry_abandoned);
}

TEST(RestartRecoveryTest, RestartAdoptsRepairsAndDeletesInOnePass) {
  SwitchConfig cfg;
  cfg.idle_timeout_ns = kSecond;  // tight so the expired entry reaps fast
  Switch sw(cfg);
  install_prefix_rules(sw, 12);
  VirtualClock clock;
  warm_flows(sw, clock, 12);
  ASSERT_EQ(sw.backend().flow_count(), 12u);

  sw.crash();
  // Kernel rot during the blackout: one corrupted entry (wrong actions,
  // repairable) and one rogue overlapping flow no healthy install path
  // would produce (stale: re-translation disagrees on match shape).
  sw.backend().corrupt_entry(0);
  clock.advance(200 * kMillisecond);
  sw.backend().install(
      MatchBuilder().tcp().nw_dst_prefix(Ipv4(10, 0, 0, 0), 16),
      DpActions().output(0xDEAD), clock.now());
  // Blackout traffic keeps the survivors warm (the datapath forwards and
  // refreshes used_ns without the daemon)...
  for (size_t i = 0; i < 12; ++i)
    sw.inject(prefix_pkt(1 + static_cast<uint32_t>(i % 2),
                         static_cast<uint8_t>(i / 200),
                         static_cast<uint8_t>(i % 200),
                         static_cast<uint16_t>(2000 + i)),
              clock.now());
  // ...except one flow forced idle: reconciliation must reap, not adopt it.
  sw.backend().expire_entry(5);

  clock.advance(900 * kMillisecond);  // idle flow at 1.1s > 1s; rest 0.9s
  ASSERT_TRUE(sw.restart(clock.now()));
  EXPECT_EQ(sw.lifecycle(), LifecycleState::kServing);

  const Switch::Counters& c = sw.counters();
  EXPECT_EQ(c.flows_repaired, 1u);
  EXPECT_GE(c.reval_deleted_stale, 1u);   // the rogue
  EXPECT_GE(c.reval_deleted_idle, 1u);    // the expired entry
  EXPECT_EQ(c.flows_adopted + c.flows_repaired + c.reval_deleted_idle +
                c.reval_deleted_stale,
            13u);  // 12 survivors + 1 rogue, partitioned exactly
  EXPECT_GT(c.reconcile_blackout_cycles, 0u);

  // Every surviving flow now answers exactly like a fresh translation.
  for (Datapath::FlowRef f : sw.backend().dump()) {
    const XlateResult want =
        sw.pipeline().translate(sw.backend().flow_match(f).key, clock.now(),
                                /*side_effects=*/false);
    EXPECT_EQ(sw.backend().flow_actions(f), want.actions);
  }
  // And installs are enabled again.
  const uint64_t setups0 = c.flow_setups;
  sw.inject(prefix_pkt(2, 0, 199, 9999), clock.now());
  sw.handle_upcalls(clock.now());
  EXPECT_EQ(c.flow_setups, setups0 + 1);
}

TEST(RestartRecoveryTest, AdoptedFlowsDoNotRecreditPreCrashTraffic) {
  SwitchConfig cfg;
  Switch sw(cfg);
  install_prefix_rules(sw, 2);
  VirtualClock clock;
  warm_flows(sw, clock, 2);
  // Pre-crash hits accumulate datapath-side stats.
  for (int i = 0; i < 20; ++i)
    sw.inject(prefix_pkt(1, 0, 0, 2000), clock.now());

  sw.crash();
  clock.advance(kSecond);
  ASSERT_TRUE(sw.restart(clock.now()));

  // The rebuilt OpenFlow rules start from zero; pushing stats must credit
  // only post-restart traffic, not the surviving flows' lifetime totals.
  for (int i = 0; i < 3; ++i)
    sw.inject(prefix_pkt(1, 0, 0, 2000), clock.now());
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  uint64_t rule_packets = 0;
  sw.table(0).for_each([&](const OfRule* r) { rule_packets += r->packets(); });
  EXPECT_LE(rule_packets, 3u + 2u /*emc-credited boundary slack*/);
}

TEST(RestartRecoveryTest, ReconcileStallPostponesServingAndIsCounted) {
  FaultInjector fault(9);
  fault.script(FaultPoint::kReconcileStall, {0});
  SwitchConfig cfg;
  cfg.fault = &fault;
  Switch sw(cfg);
  install_prefix_rules(sw, 4);
  VirtualClock clock;
  warm_flows(sw, clock, 4);

  sw.crash();
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // restart stalls: still reconciling
  EXPECT_EQ(sw.lifecycle(), LifecycleState::kReconciling);
  EXPECT_EQ(sw.counters().reconcile_stalls, 1u);
  EXPECT_EQ(sw.counters().flows_adopted, 0u);

  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // next round completes
  EXPECT_EQ(sw.lifecycle(), LifecycleState::kServing);
  EXPECT_EQ(sw.counters().flows_adopted, 4u);
}

TEST(RestartRecoveryTest, SelfCheckQuarantinesPlantedOverlap) {
  SwitchConfig cfg;
  Switch sw(cfg);
  install_prefix_rules(sw, 6);
  VirtualClock clock;
  warm_flows(sw, clock, 6);

  // A rogue overlapping megaflow with different actions appears while the
  // daemon is serving (bit-flip, hostile peer, reconciliation bug...).
  sw.backend().install(
      MatchBuilder().tcp().nw_dst_prefix(Ipv4(10, 0, 0, 0), 16),
      DpActions().output(0xDEAD), clock.now());
  const DpCheckReport r = sw.self_check();
  EXPECT_GE(r.overlap_violations, 1u);
  EXPECT_EQ(sw.counters().flows_quarantined, r.quarantine.size());
  EXPECT_EQ(sw.backend().flow_count(), 6u);
  EXPECT_TRUE(sw.self_check().ok());
  EXPECT_EQ(sw.counters().flows_quarantined, r.quarantine.size());
}

// Same seed => identical post-reconciliation flow table and recovery
// verdicts, regardless of revalidator thread count or datapath backend.
TEST(RestartRecoveryTest, ReconciliationIsDeterministicAcrossConfigs) {
  struct Outcome {
    std::vector<std::string> flows;
    std::vector<uint64_t> verdicts;
  };
  auto run = [](size_t workers, size_t reval_threads) {
    SwitchConfig cfg;
    cfg.datapath_workers = workers;
    cfg.revalidator_threads = reval_threads;
    Switch sw(cfg);
    install_prefix_rules(sw, 60);
    VirtualClock clock;
    warm_flows(sw, clock, 60);
    sw.crash();
    for (size_t k = 0; k < 5; ++k) sw.backend().corrupt_entry(k * 11);
    sw.backend().expire_entry(7);
    clock.advance(kSecond);
    EXPECT_TRUE(sw.restart(clock.now()));
    const Switch::Counters& c = sw.counters();
    return Outcome{canonical_flows(sw),
                   {c.flows_adopted, c.flows_repaired, c.reval_deleted_idle,
                    c.reval_deleted_stale, c.flows_quarantined}};
  };
  const Outcome base = run(0, 1);
  ASSERT_FALSE(base.flows.empty());
  for (auto [workers, threads] :
       {std::pair<size_t, size_t>{0, 4}, {4, 1}, {4, 4}}) {
    const Outcome o = run(workers, threads);
    EXPECT_EQ(base.flows, o.flows)
        << "workers=" << workers << " threads=" << threads;
    EXPECT_EQ(base.verdicts, o.verdicts)
        << "workers=" << workers << " threads=" << threads;
  }
}

// Regression: a crash landing on the very maintenance round that would
// have revalidated a pending repair (the repair is "in flight") must not
// double-apply it after restart, and reconciliation must leave exactly one
// live attribution record per installed flow — no leaked records for
// entries the aborted pass had planned against. Runs across single and
// sharded backends and multi-threaded revalidator plans, which share the
// decision ladder but not the apply path.
TEST(RestartRecoveryTest, CrashWithPendingRepairNeitherLeaksNorDoubleApplies) {
  for (auto [workers, reval_threads] :
       {std::pair<size_t, size_t>{0, 1}, {0, 4}, {4, 4}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers) +
                 " reval_threads=" + std::to_string(reval_threads));
    FaultInjector fault(0x51);
    SwitchConfig cfg;
    cfg.fault = &fault;
    cfg.datapath_workers = workers;
    cfg.revalidator_threads = reval_threads;
    Switch sw(cfg);
    install_prefix_rules(sw, 16);
    VirtualClock clock;
    warm_flows(sw, clock, 16);
    ASSERT_EQ(sw.backend().flow_count(), 16u);
    ASSERT_EQ(sw.attribution_count(), 16u);

    // A same-shape shadowing rule stales exactly one megaflow (same tuple,
    // higher priority, different output): the repair is now pending...
    sw.table(0).add_flow(
        MatchBuilder().tcp().nw_dst_prefix(Ipv4(10, 0, 3, 0), 24), 30,
        OfActions().output(2));
    // ...and the daemon dies on the maintenance round that would apply it.
    const uint64_t occ = fault.occurrences(FaultPoint::kUserspaceCrash);
    fault.arm_window(FaultPoint::kUserspaceCrash, occ, occ + 1);
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
    ASSERT_EQ(sw.lifecycle(), LifecycleState::kCrashed);
    EXPECT_EQ(sw.attribution_count(), 0u);  // userspace state died with it

    clock.advance(kSecond);
    sw.run_maintenance(clock.now());  // restart + reconcile
    ASSERT_EQ(sw.lifecycle(), LifecycleState::kServing);

    const Switch::Counters& c = sw.counters();
    // The pending repair was applied exactly once, and the reconciliation
    // verdicts partition the surviving cache exactly.
    EXPECT_EQ(c.flows_repaired, 1u);
    EXPECT_EQ(c.flows_adopted + c.flows_repaired + c.reval_deleted_idle +
                  c.reval_deleted_stale,
              16u);
    EXPECT_EQ(sw.attribution_count(), sw.backend().flow_count());
    EXPECT_TRUE(sw.self_check().ok());

    // A follow-up pass finds nothing left to repair: a double-apply would
    // surface here as a second wave of action updates.
    const uint64_t repaired = c.flows_repaired;
    const uint64_t updated = c.reval_updated_actions;
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
    EXPECT_EQ(c.flows_repaired, repaired);
    EXPECT_EQ(c.reval_updated_actions, updated);
    EXPECT_EQ(sw.attribution_count(), sw.backend().flow_count());

    // The slow-path ledgers balance across the whole crash/restart cycle.
    EXPECT_EQ(c.upcalls_handled + c.upcalls_retried,
              c.flow_setups + c.setup_dups + c.install_fails);
    EXPECT_EQ(c.install_fails,
              c.upcalls_retried + sw.retry_queue_depth() + c.retry_abandoned);
  }
}

// Crash-under-load via the injector: traffic keeps flowing through the
// whole crash/reconcile cycle driven only by run_maintenance, and the
// accounting invariants hold at every stage.
TEST(RestartRecoveryTest, MaintenanceDrivenRecoveryUnderLoad) {
  FaultInjector fault(0xAB);
  SwitchConfig cfg;
  cfg.fault = &fault;
  Switch sw(cfg);
  install_prefix_rules(sw, 30);
  VirtualClock clock;

  uint64_t sport = 3000;
  bool crashed_seen = false;
  for (int round = 0; round < 12; ++round) {
    if (round == 4) {
      const uint64_t occ = fault.occurrences(FaultPoint::kUserspaceCrash);
      fault.arm_window(FaultPoint::kUserspaceCrash, occ, occ + 1);
    }
    for (size_t i = 0; i < 30; ++i)
      sw.inject(prefix_pkt(1 + static_cast<uint32_t>(i % 2),
                           static_cast<uint8_t>(i / 200),
                           static_cast<uint8_t>(i % 200),
                           static_cast<uint16_t>(sport++ % 50000 + 1024)),
                clock.now());
    sw.handle_upcalls(clock.now());
    clock.advance(500 * kMillisecond);
    sw.run_maintenance(clock.now());
    crashed_seen |= sw.lifecycle() != LifecycleState::kServing;
  }
  EXPECT_TRUE(crashed_seen);
  EXPECT_EQ(sw.lifecycle(), LifecycleState::kServing);
  EXPECT_EQ(sw.counters().userspace_crashes, 1u);
  EXPECT_GT(sw.counters().flows_adopted, 0u);
  EXPECT_GT(sw.backend().flow_count(), 0u);
  const Switch::Counters& c = sw.counters();
  EXPECT_EQ(c.upcalls_handled + c.upcalls_retried,
            c.flow_setups + c.setup_dups + c.install_fails);
  EXPECT_EQ(c.install_fails,
            c.upcalls_retried + sw.retry_queue_depth() + c.retry_abandoned);
}

// Stateful pipeline across the crash/restart lifecycle (DESIGN.md §15):
// conntrack is datapath state, as the kernel module is in OVS — it survives
// the daemon, and the surviving cache keeps running ct during the blackout.
// The frozen states die with the daemon: reconciliation repairs each first
// stage to an id the dead daemon never handed out and deletes the post-ct
// flows, whose ids nobody knows; traffic sets those up again.
TEST(StatefulRestartTest, CrashKeepsConntrackAndDropsUnknownRecircFlows) {
  SwitchConfig cfg;
  Switch sw(cfg);
  for (uint32_t p = 1; p <= 3; ++p) sw.add_port(p);
  ASSERT_EQ("", sw.add_flow(
                    "priority=35, tcp, tp_dst=7070, actions=ct(table=2)", 0));
  ASSERT_EQ("", sw.add_flow(
                    "table=2, priority=30, ct_state=1, actions=output:2", 0));
  ASSERT_EQ("", sw.add_flow(
                    "table=2, priority=30, ct_state=2, actions=output:3", 0));
  VirtualClock clock;
  clock.advance(kSecond);

  FlowKey k;
  k.set_in_port(1);
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kTcp);
  k.set_nw_src(Ipv4(192, 168, 0, 1));
  k.set_nw_dst(Ipv4(10, 1, 1, 5));
  k.set_tp_src(1234);
  k.set_tp_dst(7070);
  sw.ct_commit(k, 0, clock.now());
  ASSERT_TRUE(sw.conntrack().lookup(k) & ct_state::kEstablished);

  std::vector<std::string> traces;
  sw.set_trace_hook([&](const Packet&, const DpActions& a,
                        Datapath::Path) { traces.push_back(a.to_string()); });

  Packet pkt;
  pkt.key = k;
  pkt.size_bytes = 64;
  sw.inject(pkt, clock.now());
  sw.handle_upcalls(clock.now());
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ("output:3", traces.back());  // established-state route
  ASSERT_EQ(sw.backend().flow_count(), 2u);  // the pre-ct and post-ct stages
  uint32_t old_id = 0;
  for (Datapath::FlowRef f : sw.backend().dump())
    old_id = std::max(old_id, sw.backend().flow_full_key(f).recirc_id());
  ASSERT_NE(old_id, 0u);

  sw.crash();
  // The connection table is datapath state: still there.
  EXPECT_EQ(sw.conntrack().size(), 1u);
  EXPECT_TRUE(sw.conntrack().lookup(k) & ct_state::kEstablished);

  // Blackout: the kernel cache outlives the daemon and keeps running ct.
  sw.inject(pkt, clock.now());
  EXPECT_EQ("output:3", traces.back());
  // A torn-down connection reads new again in the datapath; that stage was
  // never cached, and nobody serves the recirculation's miss.
  sw.ct_remove(k, 0);
  const size_t traced = traces.size();
  const uint64_t dropped = sw.counters().upcalls_dropped;
  sw.inject(pkt, clock.now());
  EXPECT_EQ(traces.size(), traced);
  sw.ct_commit(k, 0, clock.now());

  clock.advance(kSecond);
  ASSERT_TRUE(sw.restart(clock.now()));
  // No frozen state survived: the first stage was repaired to a fresh id,
  // the post-ct stage deleted; nothing was adopted.
  EXPECT_EQ(sw.backend().flow_count(), 1u);
  EXPECT_EQ(sw.counters().flows_adopted, 0u);
  EXPECT_EQ(sw.counters().flows_repaired, 1u);
  EXPECT_EQ(sw.counters().reval_deleted_stale, 1u);
  EXPECT_EQ(sw.counters().upcalls_dropped, dropped + 1);

  // Traffic sets the post-ct stage up again under the fresh id, and the
  // surviving connection still reads established.
  sw.inject(pkt, clock.now());
  sw.handle_upcalls(clock.now());
  EXPECT_EQ("output:3", traces.back());
  ASSERT_EQ(sw.backend().flow_count(), 2u);
  for (Datapath::FlowRef f : sw.backend().dump()) {
    const uint32_t id = sw.backend().flow_full_key(f).recirc_id();
    EXPECT_TRUE(id == 0 || id > old_id) << id;
  }
  EXPECT_TRUE(sw.self_check().ok());
}

// A NAT'd connection's binding is datapath state too: it survives the
// daemon, and the packets after restart are still rewritten.
TEST(StatefulRestartTest, NatBindingSurvivesDaemon) {
  SwitchConfig cfg;
  Switch sw(cfg);
  for (uint32_t p = 1; p <= 3; ++p) sw.add_port(p);
  ASSERT_EQ("", sw.add_flow(
                    "priority=35, tcp, tp_dst=6060, actions=ct(nat,table=2)",
                    0));
  ASSERT_EQ("", sw.add_flow("table=2, priority=1, actions=output:2", 0));
  VirtualClock clock;
  clock.advance(kSecond);

  FlowKey k;
  k.set_in_port(1);
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kTcp);
  k.set_nw_src(Ipv4(192, 168, 0, 1));
  k.set_nw_dst(Ipv4(10, 1, 1, 5));
  k.set_tp_src(1234);
  k.set_tp_dst(6060);
  CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  sw.ct_commit_nat(k, nat, 0, clock.now());
  ASSERT_TRUE(sw.conntrack().nat_lookup(k).has_value());

  std::vector<std::string> traces;
  sw.set_trace_hook([&](const Packet&, const DpActions& a,
                        Datapath::Path) { traces.push_back(a.to_string()); });
  Packet pkt;
  pkt.key = k;
  pkt.size_bytes = 64;
  sw.inject(pkt, clock.now());
  sw.handle_upcalls(clock.now());
  ASSERT_FALSE(traces.empty());
  const std::string natted = traces.back();
  EXPECT_EQ("set(nw_src=3221225993),set(tp_src=40001),output:2", natted);

  sw.crash();
  EXPECT_TRUE(sw.conntrack().nat_lookup(k).has_value());
  clock.advance(kSecond);
  ASSERT_TRUE(sw.restart(clock.now()));
  EXPECT_EQ(sw.backend().flow_count(), 1u);  // the repaired first stage

  sw.inject(pkt, clock.now());
  sw.handle_upcalls(clock.now());
  EXPECT_EQ(natted, traces.back());  // the binding outlived the daemon
}

}  // namespace
}  // namespace ovs
