// Crash/restart recovery bench (DESIGN.md §9): a dense-flow-table switch
// loses its userspace daemon mid-run while the datapath keeps forwarding
// from the surviving megaflow cache. During the blackout the cache rots —
// entries are corrupted to a bogus output port, and a rogue overlapping
// megaflow is planted directly in the datapath (simulated kernel-side rot,
// something no healthy install path would produce). The next maintenance
// tick restarts the daemon, which reconciles the surviving cache against
// the rebuilt tables and runs the megaflow invariant gate before serving.
//
// Two configurations run the identical scenario:
//
//   reconcile — the default restart path: dump, re-translate, adopt/repair/
//               delete, invariant-gate (plus the periodic self-check);
//   coldstart — ablation: the surviving cache is discarded at crash time,
//               so every flow must be re-installed through the upcall path.
//
// Gates (exit non-zero on failure, so CI can run this as a check):
//   1. zero misdelivered packets after recovery (corrupted entries repaired,
//      the rogue overlap deleted; the invariant checker agrees);
//   2. >= 95% of surviving megaflows adopted or repaired by reconciliation;
//   3. recovery makespan (crash -> 95% of pre-crash flows live) beats the
//      cold-start ablation's;
//   4. deterministic: two runs from the same seed produce identical
//      counters, and the post-recovery flow table and recovery verdicts are
//      identical across datapath backends and revalidator thread counts.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/clock.h"
#include "util/fault.h"
#include "vswitchd/switch.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

constexpr uint32_t kBogusPort = 0xDEAD;  // where corrupted entries forward

struct Params {
  double sim_seconds = 8;
  double crash_at = 3;            // crash fires at this second's maintenance
  size_t n_flows = 3000;          // /24 prefix rules == steady-state megaflows
  size_t pps = 12000;             // round-robin over every connection
  size_t corrupted = 32;          // entries rotted during the blackout
  size_t handler_budget = 256;    // upcalls serviced per 1 ms tick
  size_t maintenance_ms = 250;    // maintenance (and self-check) period
  size_t datapath_workers = 0;    // 0 = single-threaded kernel datapath
  size_t revalidator_threads = 1;
  uint64_t seed = 7;
};

struct Outcome {
  uint64_t flows_at_crash = 0;
  uint64_t blackout_ns = 0;        // crash -> serving again
  uint64_t makespan_ns = 0;        // crash -> 95% of pre-crash flows live
  uint64_t stale_residency_ns = 0; // corrupted entries wrong -> repaired
  uint64_t misdelivered_blackout = 0;
  uint64_t misdelivered_after = 0;
  uint64_t upcalls_dropped_blackout = 0;
  // Reconciliation verdicts (deltas across the recovery).
  uint64_t adopted = 0;
  uint64_t repaired = 0;
  uint64_t deleted = 0;            // idle + stale
  uint64_t quarantined = 0;
  double recovery_user_cycles = 0; // crash -> recovered
  // Post-recovery flow table, canonicalized: must be identical across
  // backends and thread counts.
  std::vector<std::string> canonical_flows;
  std::vector<uint64_t> fingerprint;

  double recovered_frac() const {
    const uint64_t examined = adopted + repaired + deleted;
    return examined == 0 ? 0.0
                         : static_cast<double>(adopted + repaired) /
                               static_cast<double>(examined);
  }
};

Packet make_packet(uint32_t in_port, Ipv4 src, Ipv4 dst, uint16_t sport) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(src);
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(443);
  return p;
}

std::vector<std::string> canonical_flows(const Switch& sw) {
  std::vector<std::string> out;
  for (Datapath::FlowRef f : sw.backend().dump())
    out.push_back(sw.backend().flow_match(f).to_string() + " -> " +
                  sw.backend().flow_actions(f).to_string());
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t fnv1a(const std::vector<std::string>& strs) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& s : strs)
    for (char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
  return h;
}

Outcome run_recovery(bool coldstart, const Params& P) {
  FaultInjector fault(P.seed);
  SwitchConfig cfg;
  cfg.flow_limit = 50000;
  cfg.datapath_workers = P.datapath_workers;
  cfg.revalidator_threads = P.revalidator_threads;
  cfg.fault = &fault;
  Switch sw(cfg);

  // Dense flow table: one /24 forwarding rule per connection, four ingress
  // ports, eight egress ports. Each connection's megaflow is therefore
  // (in_port, eth, proto, nw_dst/24) — n_flows distinct megaflows.
  for (uint32_t p = 1; p <= 4; ++p) sw.add_port(p);
  for (uint32_t e = 100; e < 108; ++e) sw.add_port(e);
  struct Conn {
    Ipv4 src{0};
    Ipv4 dst{0};
    uint32_t in_port = 0;
    uint16_t sport = 0;
  };
  std::vector<Conn> conns(P.n_flows);
  for (size_t i = 0; i < P.n_flows; ++i) {
    const auto hi = static_cast<uint8_t>(i / 250);
    const auto lo = static_cast<uint8_t>(i % 250);
    sw.table(0).add_flow(
        MatchBuilder().tcp().nw_dst_prefix(Ipv4(10, hi, lo, 0), 24), 10,
        OfActions().output(100 + static_cast<uint32_t>(i % 8)));
    conns[i] = {Ipv4(192, 168, hi, lo), Ipv4(10, hi, lo, 5),
                1 + static_cast<uint32_t>(i % 4),
                static_cast<uint16_t>(10000 + (i & 0x3FFF))};
  }

  VirtualClock clock;
  const auto ticks = static_cast<size_t>(P.sim_seconds * 1000.0);
  const auto crash_tick = static_cast<size_t>(P.crash_at * 1000.0);
  const size_t pkts_per_tick = std::max<size_t>(1, P.pps / 1000);

  Outcome out;
  uint64_t pkt_seq = 0;
  uint64_t crash_ns = 0, recovered_ns = 0, repaired_ns = 0;
  uint64_t mis_at_recovery = 0, dropped_at_crash = 0;
  uint64_t adopted0 = 0, repaired0 = 0, deleted0 = 0, quarantined0 = 0;
  double user0 = 0;
  bool crashed_seen = false, serving_seen = false, recovered_seen = false;

  for (size_t tick = 0; tick < ticks; ++tick) {
    for (size_t i = 0; i < pkts_per_tick; ++i, ++pkt_seq) {
      const Conn& c = conns[pkt_seq % conns.size()];
      sw.inject(make_packet(c.in_port, c.src, c.dst, c.sport), clock.now());
    }
    sw.handle_upcalls(clock.now(), P.handler_budget);
    clock.advance(kMillisecond);

    if (tick == crash_tick) {
      // One crash exactly: a window anchored at the current occurrence
      // count, taken by this tick's maintenance call below.
      const uint64_t occ = fault.occurrences(FaultPoint::kUserspaceCrash);
      fault.arm_window(FaultPoint::kUserspaceCrash, occ, occ + 1);
      sw.run_maintenance(clock.now());
    } else if ((tick + 1) % P.maintenance_ms == 0) {
      sw.run_maintenance(clock.now());
      // Periodic background self-check (the "checker on" configuration).
      if (sw.lifecycle() == LifecycleState::kServing) sw.self_check();
    }

    if (!crashed_seen && sw.lifecycle() != LifecycleState::kServing) {
      crashed_seen = true;
      crash_ns = clock.now();
      out.flows_at_crash = sw.backend().flow_count();
      dropped_at_crash = sw.counters().upcalls_dropped;
      adopted0 = sw.counters().flows_adopted;
      repaired0 = sw.counters().flows_repaired;
      deleted0 = sw.counters().reval_deleted_idle +
                 sw.counters().reval_deleted_stale;
      quarantined0 = sw.counters().flows_quarantined;
      user0 = sw.cpu().user_cycles;
      // Kernel-side rot while nobody is watching: a handful of corrupted
      // entries (bogus output port) and one rogue overlapping megaflow a
      // healthy install path would never produce (broader /16 mask, bogus
      // actions, intersecting an installed /24 entry's region).
      for (size_t k = 0; k < P.corrupted; ++k)
        sw.backend().corrupt_entry(
            (k * 97) % std::max<uint64_t>(1, out.flows_at_crash));
      const std::vector<Datapath::FlowRef> live = sw.backend().dump();
      if (!live.empty()) {
        const Match& m = sw.backend().flow_match(live[0]);
        MatchBuilder rogue = MatchBuilder().tcp().nw_dst_prefix(
            Ipv4(m.key.nw_dst()), 16);
        DpActions bogus;
        bogus.output(kBogusPort);
        sw.backend().install(rogue, std::move(bogus), clock.now());
      }
      if (coldstart) {
        // Ablation: the surviving cache is discarded, so recovery must
        // rebuild every flow through the upcall path.
        for (Datapath::FlowRef f : sw.backend().dump())
          sw.backend().remove(f);
        sw.backend().purge_dead();
      }
    }
    if (crashed_seen && !serving_seen &&
        sw.lifecycle() == LifecycleState::kServing) {
      serving_seen = true;
      out.blackout_ns = clock.now() - crash_ns;
      out.upcalls_dropped_blackout =
          sw.counters().upcalls_dropped - dropped_at_crash;
      out.misdelivered_blackout = sw.port_stats(kBogusPort).tx_packets;
      // Reconciliation repairs corrupted entries at restart, so their
      // wrong-actions residency equals the blackout.
      repaired_ns = sw.counters().flows_repaired > repaired0
                        ? out.blackout_ns
                        : 0;
    }
    // Recovered = the daemon serves again AND >= 95% of the pre-crash flow
    // count is live (on the reconcile path the cache never dips, so this is
    // the restart tick; cold start must also re-install its flows).
    if (serving_seen && !recovered_seen &&
        sw.backend().flow_count() >=
            (out.flows_at_crash * 95) / 100) {
      recovered_seen = true;
      recovered_ns = clock.now();
      out.makespan_ns = recovered_ns - crash_ns;
      out.recovery_user_cycles = sw.cpu().user_cycles - user0;
      mis_at_recovery = sw.port_stats(kBogusPort).tx_packets;
    }
  }

  const Switch::Counters& c = sw.counters();
  out.stale_residency_ns = repaired_ns;
  out.misdelivered_after =
      sw.port_stats(kBogusPort).tx_packets - mis_at_recovery;
  out.adopted = c.flows_adopted - adopted0;
  out.repaired = c.flows_repaired - repaired0;
  out.deleted =
      c.reval_deleted_idle + c.reval_deleted_stale - deleted0;
  out.quarantined = c.flows_quarantined - quarantined0;
  out.canonical_flows = canonical_flows(sw);

  const Datapath::Stats d = sw.backend().stats();
  out.fingerprint = {c.flow_setups,       c.setup_dups,
                     c.install_fails,     c.upcalls_handled,
                     c.upcalls_dropped,   c.upcalls_retried,
                     c.retry_abandoned,   c.userspace_crashes,
                     c.flows_adopted,     c.flows_repaired,
                     c.flows_quarantined, c.reconcile_stalls,
                     c.reval_deleted_idle, c.reval_deleted_stale,
                     c.tx_packets,        d.packets,
                     d.misses,            out.flows_at_crash,
                     out.misdelivered_after,
                     sw.backend().flow_count(),
                     fnv1a(out.canonical_flows)};
  return out;
}

void print_outcome(const char* name, const Outcome& o) {
  std::printf("%-10s %7llu %8.1f %8.1f %9llu %9llu %7llu %7llu %7llu\n",
              name, static_cast<unsigned long long>(o.flows_at_crash),
              static_cast<double>(o.blackout_ns) / 1e6,
              static_cast<double>(o.makespan_ns) / 1e6,
              static_cast<unsigned long long>(o.misdelivered_blackout),
              static_cast<unsigned long long>(o.misdelivered_after),
              static_cast<unsigned long long>(o.adopted),
              static_cast<unsigned long long>(o.repaired),
              static_cast<unsigned long long>(o.deleted));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Params P;
  if (flags.boolean("quick", false)) {
    P.sim_seconds = 4;
    P.crash_at = 1.5;
    P.n_flows = 800;
    P.pps = 6000;
  }
  P.sim_seconds = flags.f64("seconds", P.sim_seconds);
  P.n_flows = flags.u64("flows", P.n_flows);
  P.pps = flags.u64("pps", P.pps);
  P.corrupted = flags.u64("corrupted", P.corrupted);
  P.seed = flags.u64("seed", P.seed);

  BenchReport report("restart_recovery");
  std::printf("Restart recovery: %zu megaflows, crash at %.1fs, %zu entries "
              "corrupted + 1 rogue overlap during the blackout\n",
              P.n_flows, P.crash_at, P.corrupted);
  print_rule('=');
  std::printf("%-10s %7s %8s %8s %9s %9s %7s %7s %7s\n", "config", "flows",
              "blk_ms", "mksp_ms", "mis_blk", "mis_aft", "adopt", "repair",
              "delete");
  print_rule();

  const Outcome reconcile = run_recovery(false, P);
  const Outcome replay = run_recovery(false, P);
  const Outcome coldstart = run_recovery(true, P);
  print_outcome("reconcile", reconcile);
  print_outcome("coldstart", coldstart);
  print_rule();

  // Backend / thread-count invariance: the post-recovery flow table and the
  // reconciliation verdicts must not depend on how the datapath is sharded
  // or how many plan threads the revalidator uses.
  Params mt = P;
  mt.revalidator_threads = 4;
  const Outcome threads4 = run_recovery(false, mt);
  Params sharded = mt;
  sharded.datapath_workers = 4;
  const Outcome workers4 = run_recovery(false, sharded);

  const bool deterministic = reconcile.fingerprint == replay.fingerprint;
  const bool gate_mis = reconcile.misdelivered_after == 0 &&
                        threads4.misdelivered_after == 0 &&
                        workers4.misdelivered_after == 0;
  const bool gate_recovered = reconcile.recovered_frac() >= 0.95;
  const bool gate_makespan = reconcile.makespan_ns < coldstart.makespan_ns;
  auto verdicts = [](const Outcome& o) {
    return std::vector<uint64_t>{o.adopted, o.repaired, o.deleted,
                                 o.quarantined};
  };
  const bool gate_invariant =
      reconcile.canonical_flows == threads4.canonical_flows &&
      reconcile.canonical_flows == workers4.canonical_flows &&
      verdicts(reconcile) == verdicts(threads4) &&
      verdicts(reconcile) == verdicts(workers4);

  std::printf("misdelivered after recovery: %llu / %llu / %llu "
              "(1 thread / 4 threads / 4 workers)  [gate == 0: %s]\n",
              static_cast<unsigned long long>(reconcile.misdelivered_after),
              static_cast<unsigned long long>(threads4.misdelivered_after),
              static_cast<unsigned long long>(workers4.misdelivered_after),
              gate_mis ? "PASS" : "FAIL");
  std::printf("surviving megaflows adopted or repaired: %.2f%%  "
              "[gate >= 95%%: %s]\n", 100 * reconcile.recovered_frac(),
              gate_recovered ? "PASS" : "FAIL");
  std::printf("recovery makespan: %.1f ms reconcile vs %.1f ms cold start  "
              "[gate <: %s]\n",
              static_cast<double>(reconcile.makespan_ns) / 1e6,
              static_cast<double>(coldstart.makespan_ns) / 1e6,
              gate_makespan ? "PASS" : "FAIL");
  std::printf("recovery user cycles: %.2e reconcile vs %.2e cold start\n",
              reconcile.recovery_user_cycles, coldstart.recovery_user_cycles);
  std::printf("post-recovery flow table invariant across backends/threads: "
              "%s\n", gate_invariant ? "PASS" : "FAIL");
  std::printf("deterministic replay from seed %llu: %s\n",
              static_cast<unsigned long long>(P.seed),
              deterministic ? "PASS" : "FAIL");

  for (const auto* o : {&reconcile, &coldstart}) {
    const std::string series = o == &reconcile ? "reconcile" : "coldstart";
    report.add("blackout_ms", static_cast<double>(o->blackout_ns) / 1e6,
               {{"series", series}});
    report.add("makespan_ms", static_cast<double>(o->makespan_ns) / 1e6,
               {{"series", series}});
    report.add("recovery_user_cycles", o->recovery_user_cycles,
               {{"series", series}});
    report.add("misdelivered_blackout",
               static_cast<double>(o->misdelivered_blackout),
               {{"series", series}});
    report.add("misdelivered_after",
               static_cast<double>(o->misdelivered_after),
               {{"series", series}});
    report.add("flows_adopted", static_cast<double>(o->adopted),
               {{"series", series}});
    report.add("flows_repaired", static_cast<double>(o->repaired),
               {{"series", series}});
    report.add("flows_deleted", static_cast<double>(o->deleted),
               {{"series", series}});
    report.add("upcalls_dropped_blackout",
               static_cast<double>(o->upcalls_dropped_blackout),
               {{"series", series}});
  }
  report.add("recovered_frac", reconcile.recovered_frac());
  report.add("stale_residency_ms",
             static_cast<double>(reconcile.stale_residency_ns) / 1e6);
  report.add("deterministic", deterministic ? 1 : 0);
  report.add("backend_invariant", gate_invariant ? 1 : 0);
  report.write();

  return gate_mis && gate_recovered && gate_makespan && gate_invariant &&
                 deterministic
             ? 0
             : 1;
}
