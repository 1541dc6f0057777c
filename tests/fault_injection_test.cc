// Fault-injection matrix and overload-degradation tests.
//
// The claims under test, per fault class (util/fault.h):
//   * convergence — once faults stop, bounded repeat traffic plus one
//     maintenance round restores every cached flow to the pipeline's
//     current answer, with no permanently lost connections;
//   * soundness — no fault ever makes the cache *answer wrongly* for live
//     entries after convergence (wildcarding stays sound);
//   * accounting — the switch's overload counters balance exactly
//     (see Switch::Counters invariants), so nothing is silently lost;
//   * determinism — the whole scenario replays bit-identically from the
//     same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/clock.h"
#include "test_util.h"
#include "util/fault.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

Packet conn_packet(uint32_t port, uint32_t id) {
  Packet p;
  p.key.set_in_port(port);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(10, static_cast<uint8_t>(port),
                        static_cast<uint8_t>(id >> 8),
                        static_cast<uint8_t>(id)));
  p.key.set_nw_dst(Ipv4(9, 1, 1, 2));
  p.key.set_tp_src(static_cast<uint16_t>(1024 + (id % 60000)));
  p.key.set_tp_dst(80);
  return p;
}

void expect_accounting_invariants(const Switch& sw) {
  const Switch::Counters& c = sw.counters();
  // Every processed attempt (fresh or retry) installed, hit a dup, or
  // failed. Holds across a crash: crash() folds the queued upcalls into
  // upcalls_dropped and the pending retries into retry_abandoned, so
  // nothing leaves the ledger silently.
  EXPECT_EQ(c.upcalls_handled + c.upcalls_retried,
            c.flow_setups + c.setup_dups + c.install_fails);
  // Every failure was retried, is still pending, or was given up.
  EXPECT_EQ(c.install_fails,
            c.upcalls_retried + sw.retry_queue_depth() + c.retry_abandoned);
  // Every rule-add attempt was either admitted into a table or rejected by
  // the per-tenant mask cap — a rejection must not leak a partial rule.
  EXPECT_EQ(c.flow_adds_attempted,
            c.flow_adds_admitted + c.rules_rejected_mask_cap);
  // Reconciliation verdicts only ever come from examined flows, and
  // blackout cycles only from taken crashes.
  EXPECT_LE(c.flows_adopted + c.flows_repaired, c.reval_flows_examined);
  if (c.userspace_crashes == 0) {
    EXPECT_EQ(c.reconcile_blackout_cycles, 0u);
  }
}

// --- FaultInjector unit behavior -------------------------------------------

TEST(FaultInjectorTest, ScriptFiresAtExactOccurrences) {
  FaultInjector f(7);
  f.script(FaultPoint::kInstallTransient, {0, 2, 5});
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i)
    fired.push_back(f.should_fire(FaultPoint::kInstallTransient));
  EXPECT_EQ(fired, (std::vector<bool>{true, false, true, false, false, true,
                                      false, false}));
  EXPECT_EQ(f.fired(FaultPoint::kInstallTransient), 3u);
  EXPECT_EQ(f.occurrences(FaultPoint::kInstallTransient), 8u);
}

TEST(FaultInjectorTest, WindowFiresInHalfOpenRange) {
  FaultInjector f(7);
  f.arm_window(FaultPoint::kUpcallDrop, 2, 5);
  int n = 0;
  for (int i = 0; i < 10; ++i)
    if (f.should_fire(FaultPoint::kUpcallDrop)) ++n;
  EXPECT_EQ(n, 3);
}

TEST(FaultInjectorTest, ProbabilityStreamIsDeterministicAndIndependent) {
  auto run = [](bool also_arm_other) {
    FaultInjector f(1234);
    f.set_probability(FaultPoint::kUpcallDrop, 0.3);
    if (also_arm_other)
      f.set_probability(FaultPoint::kInstallTableFull, 0.9);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(f.should_fire(FaultPoint::kUpcallDrop));
      if (also_arm_other)
        (void)f.should_fire(FaultPoint::kInstallTableFull);
    }
    return out;
  };
  // Same seed -> same stream; arming another point must not perturb it.
  EXPECT_EQ(run(false), run(false));
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultInjectorTest, DisarmStopsFiringButKeepsCounters) {
  FaultInjector f(9);
  f.arm_window(FaultPoint::kEntryCorrupt, 0, 100);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(f.should_fire(FaultPoint::kEntryCorrupt));
  f.disarm(FaultPoint::kEntryCorrupt);
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(f.should_fire(FaultPoint::kEntryCorrupt));
  EXPECT_EQ(f.fired(FaultPoint::kEntryCorrupt), 10u);
  EXPECT_EQ(f.occurrences(FaultPoint::kEntryCorrupt), 20u);
}

TEST(FaultInjectorTest, ResetReplaysTheIdenticalFaultSchedule) {
  // reset() rewinds the occurrence counters, script cursors, and the
  // seed-derived probability streams while leaving schedules armed, so a
  // second run over the same decision points sees bit-identical faults
  // (replayable fault schedules for reconnect/recovery tests).
  FaultInjector f(0x5EED);
  f.set_probability(FaultPoint::kCtrlMsgDrop, 0.35);
  f.script(FaultPoint::kCtrlConnReset, {3, 7, 11});
  f.arm_window(FaultPoint::kCtrlMsgDelay, 5, 9);

  auto episode = [&f] {
    std::vector<bool> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(f.should_fire(FaultPoint::kCtrlMsgDrop));
      out.push_back(f.should_fire(FaultPoint::kCtrlConnReset));
      out.push_back(f.should_fire(FaultPoint::kCtrlMsgDelay));
    }
    return out;
  };

  const std::vector<bool> first = episode();
  // Counters advanced and the script cursor is spent...
  EXPECT_EQ(f.occurrences(FaultPoint::kCtrlMsgDrop), 64u);
  EXPECT_EQ(f.fired(FaultPoint::kCtrlConnReset), 3u);
  ASSERT_NE(f.fired(FaultPoint::kCtrlMsgDrop), 0u);

  // ...until reset() rewinds everything to the origin.
  f.reset();
  EXPECT_EQ(f.occurrences(FaultPoint::kCtrlMsgDrop), 0u);
  EXPECT_EQ(f.fired(FaultPoint::kCtrlConnReset), 0u);
  EXPECT_EQ(episode(), first);

  // Per-point reset rewinds only that point: the drop stream replays while
  // the (un-reset) script stays spent.
  f.reset(FaultPoint::kCtrlMsgDrop);
  std::vector<bool> drops, resets;
  for (int i = 0; i < 64; ++i) {
    drops.push_back(f.should_fire(FaultPoint::kCtrlMsgDrop));
    resets.push_back(f.should_fire(FaultPoint::kCtrlConnReset));
    (void)f.should_fire(FaultPoint::kCtrlMsgDelay);
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(drops[static_cast<size_t>(i)], first[static_cast<size_t>(3 * i)]);
    EXPECT_FALSE(resets[static_cast<size_t>(i)]);
  }

  // Victim selection rewinds with the whole-injector reset too.
  f.reset();
  std::vector<uint64_t> picks1, picks2;
  for (int i = 0; i < 16; ++i) picks1.push_back(f.pick(1000));
  f.reset();
  for (int i = 0; i < 16; ++i) picks2.push_back(f.pick(1000));
  EXPECT_EQ(picks1, picks2);
}

// --- Fault matrix: convergence after every fault class ---------------------

class FaultMatrixTest : public ::testing::TestWithParam<FaultPoint> {};

TEST_P(FaultMatrixTest, ConvergesAfterFaultsStop) {
  FaultInjector fault(0xF00D + static_cast<uint64_t>(GetParam()));
  fault.set_probability(GetParam(), 0.3);
  // kReconcileStall is only consulted while a restart is reconciling, so
  // its matrix row needs a crash to reach that state: script one at the
  // first maintenance round.
  if (GetParam() == FaultPoint::kReconcileStall)
    fault.script(FaultPoint::kUserspaceCrash, {0});

  SwitchConfig cfg;
  cfg.megaflows_enabled = false;  // one exact-match entry per connection
  cfg.fault = &fault;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  constexpr uint32_t kConns = 200;
  VirtualClock clock;

  // Phase 1: faults armed. Repeat traffic over a fixed connection set;
  // whatever the fault does, nothing may crash or corrupt accounting.
  for (int round = 0; round < 10; ++round) {
    for (uint32_t i = 0; i < kConns; ++i)
      sw.inject(conn_packet(1, i), clock.now());
    sw.handle_upcalls(clock.now());
    clock.advance(100 * kMillisecond);
    if (round % 5 == 4) sw.run_maintenance(clock.now());
  }
  expect_accounting_invariants(sw);

  // Phase 2: faults stop. One maintenance round (repairs corruption,
  // reaps expirations, completes any pending crash recovery) plus one
  // clean traffic round must converge. A crash taken at the very last
  // armed maintenance can leave the switch mid-recovery, so drive
  // maintenance until it serves again (bounded: stalls are disarmed).
  fault.disarm_all();
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  for (int i = 0; i < 3 && sw.lifecycle() != LifecycleState::kServing; ++i)
    sw.run_maintenance(clock.now());
  ASSERT_EQ(sw.lifecycle(), LifecycleState::kServing);
  for (int round = 0; round < 3; ++round) {
    for (uint32_t i = 0; i < kConns; ++i)
      sw.inject(conn_packet(1, i), clock.now());
    sw.handle_upcalls(clock.now());
    clock.advance(200 * kMillisecond);  // lets any last retries come due
  }
  sw.handle_upcalls(clock.now());

  // Every connection is cached and every cached answer equals a fresh
  // translation (the convergence + soundness property).
  EXPECT_EQ(sw.backend().flow_count(), kConns);
  for (Datapath::FlowRef f : sw.backend().dump()) {
    const FlowKey& key = sw.backend().flow_match(f).key;
    const XlateResult want =
        sw.pipeline().translate(key, clock.now(), /*side_effects=*/false);
    EXPECT_EQ(sw.backend().flow_actions(f), want.actions) << key.to_string();
  }
  EXPECT_EQ(sw.retry_queue_depth(), 0u);
  EXPECT_EQ(sw.backend().delayed_upcall_count(), 0u);
  expect_accounting_invariants(sw);

  // The armed point actually exercised something (occurrences consumed);
  // guards against a fault class silently becoming a no-op.
  EXPECT_GT(fault.occurrences(GetParam()), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultMatrixTest,
    ::testing::Values(FaultPoint::kUpcallDrop, FaultPoint::kUpcallDelay,
                      FaultPoint::kUpcallDuplicate,
                      FaultPoint::kInstallTableFull,
                      FaultPoint::kInstallTransient,
                      FaultPoint::kEntryCorrupt, FaultPoint::kEntryExpire,
                      FaultPoint::kRevalidatorStall,
                      FaultPoint::kUserspaceCrash,
                      FaultPoint::kReconcileStall),
    [](const ::testing::TestParamInfo<FaultPoint>& param_info) {
      return fault_point_name(param_info.param);
    });

TEST(FaultMatrixTest, ScenarioIsDeterministicFromSeed) {
  auto run = [] {
    FaultInjector fault(0xDE7);
    for (size_t i = 0; i < kNumFaultPoints; ++i)
      fault.set_probability(static_cast<FaultPoint>(i), 0.15);
    SwitchConfig cfg;
    cfg.megaflows_enabled = false;
    cfg.fault = &fault;
    Switch sw(cfg);
    sw.add_port(1);
    sw.add_port(2);
    sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));
    VirtualClock clock;
    for (int round = 0; round < 8; ++round) {
      for (uint32_t i = 0; i < 150; ++i)
        sw.inject(conn_packet(1, i), clock.now());
      sw.handle_upcalls(clock.now());
      clock.advance(100 * kMillisecond);
      if (round % 3 == 2) sw.run_maintenance(clock.now());
    }
    const Switch::Counters& c = sw.counters();
    return std::vector<uint64_t>{
        c.flow_setups,     c.setup_dups,      c.install_fails,
        c.upcalls_handled, c.upcalls_retried, c.retry_abandoned,
        c.upcalls_dropped, c.reval_stalls,    c.userspace_crashes,
        c.flows_adopted,   c.reconcile_stalls, sw.backend().flow_count(),
        fault.total_fired()};
  };
  EXPECT_EQ(run(), run());
}

// Megaflow (wildcarded) corruption: the revalidator must repair entries
// whose actions were scrambled even though the pipeline never changed.
TEST(FaultMatrixTest, CorruptedMegaflowsRepairedByRevalidator) {
  FaultInjector fault(0xC0);
  SwitchConfig cfg;
  cfg.fault = &fault;
  Switch sw(cfg);
  sw.add_port(1);
  for (uint32_t p = 2; p <= 5; ++p) sw.add_port(p);
  for (uint8_t i = 0; i < 16; ++i)
    sw.table(0).add_flow(MatchBuilder().ip().nw_dst(Ipv4(9, 1, 1, i)), 10,
                         OfActions().output(2 + (i % 4)));

  VirtualClock clock;
  for (uint8_t i = 0; i < 16; ++i) {
    Packet p;
    p.key.set_in_port(1);
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_proto(ipproto::kUdp);
    p.key.set_nw_dst(Ipv4(9, 1, 1, i));
    p.key.set_tp_dst(5000);
    sw.inject(p, clock.now());
  }
  sw.handle_upcalls(clock.now());
  ASSERT_EQ(sw.backend().flow_count(), 16u);

  // Corrupt every entry deterministically (window: all occurrences fire),
  // via the switch's own injection point so it learns repair is needed.
  // Anchor the window at the current occurrence count: earlier
  // handle_upcalls calls already consumed occurrences of this point.
  const uint64_t base = fault.occurrences(FaultPoint::kEntryCorrupt);
  fault.arm_window(FaultPoint::kEntryCorrupt, base, base + 16);
  for (int i = 0; i < 16; ++i) sw.handle_upcalls(clock.now());
  EXPECT_EQ(sw.backend().stats().entries_corrupted, 16u);
  fault.disarm_all();

  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // pipeline unchanged: repair relies on
                                    // the forced full revalidation
  EXPECT_GT(sw.counters().reval_updated_actions, 0u);
  for (Datapath::FlowRef f : sw.backend().dump()) {
    const FlowKey& key = sw.backend().flow_match(f).key;
    const XlateResult want =
        sw.pipeline().translate(key, clock.now(), /*side_effects=*/false);
    EXPECT_EQ(sw.backend().flow_actions(f), want.actions) << key.to_string();
  }
}

// --- Install-failure retry path --------------------------------------------

TEST(RetryTest, TransientFailureRetriedWithBackoffUntilInstalled) {
  FaultInjector fault(0x11);
  // Fail the first install attempt and the first retry; third attempt lands.
  fault.script(FaultPoint::kInstallTransient, {0, 1});
  SwitchConfig cfg;
  cfg.megaflows_enabled = false;
  cfg.fault = &fault;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  VirtualClock clock;
  sw.inject(conn_packet(1, 0), clock.now());
  sw.handle_upcalls(clock.now());  // attempt 0 fails -> retry in 10ms
  EXPECT_EQ(sw.counters().install_fails, 1u);
  EXPECT_EQ(sw.retry_queue_depth(), 1u);
  EXPECT_EQ(sw.backend().flow_count(), 0u);

  clock.advance(5 * kMillisecond);
  sw.handle_upcalls(clock.now());  // not due yet
  EXPECT_EQ(sw.counters().upcalls_retried, 0u);

  clock.advance(10 * kMillisecond);
  sw.handle_upcalls(clock.now());  // retry 1 fails -> backoff 20ms
  EXPECT_EQ(sw.counters().upcalls_retried, 1u);
  EXPECT_EQ(sw.counters().install_fails, 2u);

  clock.advance(25 * kMillisecond);
  sw.handle_upcalls(clock.now());  // retry 2 succeeds
  EXPECT_EQ(sw.counters().upcalls_retried, 2u);
  EXPECT_EQ(sw.backend().flow_count(), 1u);
  EXPECT_EQ(sw.counters().flow_setups, 1u);
  EXPECT_EQ(sw.counters().retry_abandoned, 0u);
  EXPECT_EQ(sw.retry_queue_depth(), 0u);
  expect_accounting_invariants(sw);
}

TEST(RetryTest, PersistentFailureIsAbandonedAfterMaxRetries) {
  FaultInjector fault(0x12);
  fault.set_probability(FaultPoint::kInstallTransient, 1.0);
  SwitchConfig cfg;
  cfg.megaflows_enabled = false;
  cfg.fault = &fault;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  VirtualClock clock;
  sw.inject(conn_packet(1, 0), clock.now());
  for (int i = 0; i < 8; ++i) {
    sw.handle_upcalls(clock.now());
    clock.advance(kSecond);  // far past every backoff
  }
  // 1 fresh attempt + max_install_retries retries, all failed, then gone.
  EXPECT_EQ(sw.counters().upcalls_retried,
            cfg.degradation.max_install_retries);
  EXPECT_EQ(sw.counters().install_fails,
            1 + cfg.degradation.max_install_retries);
  EXPECT_EQ(sw.counters().retry_abandoned, 1u);
  EXPECT_EQ(sw.retry_queue_depth(), 0u);
  EXPECT_EQ(sw.backend().flow_count(), 0u);
  expect_accounting_invariants(sw);
}

TEST(RetryTest, DegradationOffLosesFailedInstallsSilently) {
  FaultInjector fault(0x13);
  fault.script(FaultPoint::kInstallTransient, {0});
  SwitchConfig cfg;
  cfg.megaflows_enabled = false;
  cfg.degradation.enabled = false;  // ablation
  cfg.fault = &fault;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  VirtualClock clock;
  sw.inject(conn_packet(1, 0), clock.now());
  sw.handle_upcalls(clock.now());
  EXPECT_EQ(sw.counters().install_fails, 1u);
  EXPECT_EQ(sw.retry_queue_depth(), 0u);  // no retry scheduled
  EXPECT_EQ(sw.backend().flow_count(), 0u);
  // Only re-missing traffic re-establishes the flow.
  clock.advance(kMillisecond);
  sw.inject(conn_packet(1, 0), clock.now());
  sw.handle_upcalls(clock.now());
  EXPECT_EQ(sw.backend().flow_count(), 1u);
}

// --- Revalidator deadline AIMD ---------------------------------------------

TEST(DegradationTest, RevalidatorStallBacksOffThenRecovers) {
  FaultInjector fault(0x21);
  fault.arm_window(FaultPoint::kRevalidatorStall, 0, 2);
  SwitchConfig cfg;
  cfg.fault = &fault;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  VirtualClock clock;
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // stalled
  EXPECT_EQ(sw.counters().reval_stalls, 1u);
  EXPECT_EQ(sw.counters().flow_limit_backoffs, 1u);
  EXPECT_DOUBLE_EQ(sw.flow_limit_scale(), 0.5);
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // stalled again: multiplicative
  EXPECT_DOUBLE_EQ(sw.flow_limit_scale(), 0.25);

  // Clean passes win the headroom back additively.
  for (int i = 0; i < 10 && sw.flow_limit_scale() < 1.0; ++i) {
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
  }
  EXPECT_DOUBLE_EQ(sw.flow_limit_scale(), 1.0);
  EXPECT_EQ(sw.counters().reval_stalls, 2u);
}

TEST(DegradationTest, DeadlineOverrunShrinksEffectiveFlowLimit) {
  SwitchConfig cfg;
  cfg.megaflows_enabled = false;
  cfg.max_revalidation_ns = kMillisecond;  // capacity ~333 flows at 2 GHz
  cfg.degradation.limit_floor = 64;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  VirtualClock clock;
  for (uint32_t i = 0; i < 400; ++i)
    sw.inject(conn_packet(1, i), clock.now());
  sw.handle_upcalls(clock.now());
  ASSERT_EQ(sw.backend().flow_count(), 400u);

  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // 400 * 6000 cycles = 1.2ms > deadline
  EXPECT_GE(sw.counters().reval_overruns, 1u);
  EXPECT_GE(sw.counters().flow_limit_backoffs, 1u);
  const size_t base_limit = 333;  // deadline-derived capacity
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // scaled limit now in force
  EXPECT_LT(sw.effective_flow_limit(), base_limit);
  EXPECT_GE(sw.effective_flow_limit(), cfg.degradation.limit_floor);
  EXPECT_LE(sw.backend().flow_count(), base_limit);
}

// --- EMC thrash -> probabilistic insertion ---------------------------------

TEST(DegradationTest, EmcThrashEngagesProbabilisticInsertionWithHysteresis) {
  SwitchConfig cfg;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  VirtualClock clock;
  // Warm the single catch-all megaflow.
  sw.inject(conn_packet(1, 0), clock.now());
  sw.handle_upcalls(clock.now());
  ASSERT_EQ(sw.backend().flow_count(), 1u);
  // The datapath's config shows the live knob.
  const Datapath& dp = sw.backend();

  // Adversarial phase: never-repeating microflows. Every packet is a
  // megaflow hit that inserts a one-shot EMC entry — pure thrash.
  for (uint32_t i = 1; i <= 2000; ++i)
    sw.inject(conn_packet(1, i), clock.now());
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  EXPECT_TRUE(sw.emc_degraded());
  EXPECT_EQ(sw.counters().emc_degrade_engaged, 1u);
  EXPECT_EQ(dp.config().emc_insert_inv_prob,
            cfg.degradation.emc_degraded_inv_prob);

  // While degraded, most one-shot inserts are skipped.
  const uint64_t skips0 = sw.backend().stats().emc_insert_skips;
  for (uint32_t i = 3000; i < 4000; ++i)
    sw.inject(conn_packet(1, i), clock.now());
  EXPECT_GT(sw.backend().stats().emc_insert_skips, skips0 + 800);

  // Calm phase: a small repeating working set. Hits dominate attempts;
  // the detector disengages and normal insertion resumes.
  for (int round = 0; round < 300; ++round)
    for (uint32_t i = 0; i < 20; ++i)
      sw.inject(conn_packet(1, i), clock.now());
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  EXPECT_FALSE(sw.emc_degraded());
  EXPECT_EQ(dp.config().emc_insert_inv_prob, 1u);
}

// --- Fair queue under a port storm -----------------------------------------

struct FairnessOutcome {
  uint64_t storm_handled = 0;
  uint64_t victim_handled = 0;   // summed over the three victim ports
  uint64_t victim_min = 0;       // worst-served victim port
  uint64_t victim_max = 0;       // best-served victim port
  uint64_t victim_offered = 0;
  uint64_t victim_installs = 0;
};

// Port 1 floods never-repeating connections; ports 2-4 offer a modest
// stream of fresh connections. The handler budget is far below the
// aggregate offered miss rate, so the queue is always saturated — the
// dequeue policy alone decides who gets slow-path service.
FairnessOutcome run_port_storm(bool fair) {
  SwitchConfig cfg;
  cfg.megaflows_enabled = false;
  cfg.upcall_queue.fair = fair;
  cfg.upcall_queue.per_port_quota = 256;
  cfg.upcall_queue.global_cap = 1024;
  Switch sw(cfg);
  for (uint32_t p = 1; p <= 5; ++p) sw.add_port(p);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(5));

  VirtualClock clock;
  FairnessOutcome out;
  uint32_t storm_id = 0;
  uint32_t victim_id = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 300; ++i)
      sw.inject(conn_packet(1, storm_id++), clock.now());
    for (uint32_t port = 2; port <= 4; ++port) {
      for (int i = 0; i < 20; ++i)
        sw.inject(conn_packet(port, victim_id++), clock.now());
      out.victim_offered += 20;
    }
    sw.handle_upcalls(clock.now(), /*max_upcalls=*/100);
    clock.advance(kMillisecond);
  }
  out.storm_handled = sw.port_upcall_stats(1).handled;
  out.victim_min = ~uint64_t{0};
  for (uint32_t port = 2; port <= 4; ++port) {
    const Switch::PortUpcallStats ps = sw.port_upcall_stats(port);
    out.victim_handled += ps.handled;
    out.victim_installs += ps.installs;
    out.victim_min = std::min(out.victim_min, ps.handled);
    out.victim_max = std::max(out.victim_max, ps.handled);
  }
  return out;
}

TEST(UpcallFairnessTest, FloodingPortCannotStarveOthers) {
  const FairnessOutcome fair = run_port_storm(/*fair=*/true);
  // Victims' offered load (60/round) fits comfortably inside the budget
  // (100/round); round-robin must serve nearly all of it no matter how
  // hard port 1 floods.
  EXPECT_GE(fair.victim_handled, fair.victim_offered * 9 / 10)
      << "victims offered " << fair.victim_offered;
  // Service is even across the victim ports (within 25% of each other).
  EXPECT_LE(fair.victim_max - fair.victim_min, fair.victim_max / 4);
  // Every handled victim upcall became an install (distinct connections).
  EXPECT_EQ(fair.victim_installs, fair.victim_handled);
  // The storm port still gets the leftover budget — bounded, not banned.
  EXPECT_GT(fair.storm_handled, 0u);
}

TEST(UpcallFairnessTest, FifoAblationStarvesVictimPorts) {
  const FairnessOutcome fair = run_port_storm(/*fair=*/true);
  const FairnessOutcome fifo = run_port_storm(/*fair=*/false);
  // The historical single FIFO serves ports in proportion to arrivals, so
  // the flood crowds the victims out of most of their service.
  EXPECT_LT(fifo.victim_handled, fifo.victim_offered / 2);
  EXPECT_GT(fair.victim_handled, 2 * fifo.victim_handled);
}

// --- Multi-worker datapath fault surface -----------------------------------

TEST(ShardedFaultTest, InstallAndUpcallFaultsAreCountedAndRecoverable) {
  FaultInjector fault(0x31);
  Datapath dp({}, 2);
  dp.set_fault_injector(&fault);
  testutil::UpcallCollector up(dp);

  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);

  // First install fails (scripted table-full); second lands.
  fault.script(FaultPoint::kInstallTableFull, {0});
  EXPECT_EQ(dp.install(m, DpActions().output(2), 0), nullptr);
  EXPECT_EQ(dp.stats().install_fail_full, 1u);
  Datapath::FlowRef e = dp.install(m, DpActions().output(2), 0);
  ASSERT_NE(e, nullptr);
  // Each install consults the fault once, whatever the number of shards.
  EXPECT_EQ(fault.occurrences(FaultPoint::kInstallTableFull), 2u);

  // Misses: first upcall dropped, second delayed, third duplicated.
  fault.script(FaultPoint::kUpcallDrop, {0});
  fault.script(FaultPoint::kUpcallDelay, {0});       // 2nd miss: delay occ 0
  fault.script(FaultPoint::kUpcallDuplicate, {0});   // 3rd miss: dup occ 0
  std::vector<Packet> misses(3);
  for (int i = 0; i < 3; ++i) {
    misses[i].key.set_in_port(9);
    misses[i].key.set_eth_type(ethertype::kIpv4);
    misses[i].key.set_nw_src(Ipv4(10, 0, 0, static_cast<uint8_t>(i)));
  }
  Datapath::RxResult results[3];
  dp.process_batch(0, misses, 0, results);
  EXPECT_EQ(dp.stats().upcall_drops, 1u);
  EXPECT_EQ(dp.stats().upcalls_delayed, 1u);
  EXPECT_EQ(dp.stats().upcall_dup_enqueues, 1u);
  // The sink got the duplicated miss twice; the delayed one is parked.
  EXPECT_EQ(up.pkts.size(), 2u);
  EXPECT_EQ(dp.delayed_upcall_count(), 1u);

  // The flush hands the parked upcall over.
  dp.flush_delayed_upcalls();
  EXPECT_EQ(dp.delayed_upcall_count(), 0u);
  EXPECT_EQ(up.pkts.size(), 3u);

  // Conservation: every miss was delivered, parked, or dropped (the
  // duplicate adds one extra delivery).
  const auto s = dp.stats();
  EXPECT_EQ(s.misses + s.upcall_dup_enqueues,
            3u /*delivered*/ + s.upcall_drops);
}

}  // namespace
}  // namespace ovs
