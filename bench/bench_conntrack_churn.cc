// Conntrack churn robustness bench (DESIGN.md §15): an attacker zone churns
// a Zipf-distributed universe of connections through the bounded connection
// table — explicit commits plus first-packet traffic, so every fresh
// connection competes for a conntrack slot — while a quiet victim zone
// holds a small set of established connections whose packets ride the
// ct_state=established route. The datapath runs conntrack and
// recirculates, so the churn mints no megaflows: a stateful megaflow
// covers every connection its mask allows.
//
// Four configurations run the identical offered load:
//
//   off      — fair eviction, degradation policies disabled: the bounded
//              table alone;
//   on       — fair eviction with the degradation policies on;
//   unfair   — the eviction-fairness ablation (globally-oldest eviction):
//              the attacker's churn displaces the idle victim's state;
//   replay   — the `on` run again from the same seed (determinism gate).
//
// Gates, by exit code:
//   1. bounded memory: the connection table never exceeds ct_cap in any
//      run, storm included (sampled every tick);
//   2. eviction fairness: under fair eviction every victim connection
//      survives the storm; under the unfair ablation at most half do
//      (the attacker displaces the quiet zone's state);
//   3. churn mints no megaflows: the datapath's flow count never exceeds
//      `flow_bound` in any run (sampled every tick), however many
//      connections the storm churns;
//   4. deterministic replay: two `on` runs from one seed produce identical
//      counter fingerprints.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "util/rng.h"
#include "vswitchd/switch.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

constexpr uint32_t kAttackPort = 1;
constexpr uint32_t kVictimPort = 2;
constexpr uint32_t kNewRoute = 3;  // ct_state=new egress
constexpr uint32_t kEstRoute = 4;  // ct_state=established egress
constexpr uint16_t kAttackService = 7070;  // ct zone 1
constexpr uint16_t kVictimService = 9090;  // ct zone 2

struct Params {
  size_t conn_universe = 2'000'000;  // attacker Zipf universe
  double zipf_alpha = 2.0;           // u^alpha concentration (head-heavy)
  size_t ct_cap = 4096;
  size_t victim_conns = 256;
  size_t ticks = 1000;               // 1ms ticks
  size_t attack_per_tick = 2000;     // commits + first packets per tick
  size_t victim_per_tick = 500;
  size_t handler_budget = 64;        // upcalls serviced per tick
  double remove_frac = 0.05;         // explicit teardowns per tick
  // Megaflows the two services' stages need, whatever the connection
  // count: one pre-ct flow per service, one post-ct flow per ct_state each
  // service's connections reach.
  size_t flow_bound = 16;
  uint64_t seed = 23;
};

enum class Config { kOff, kOn, kUnfair };

const char* config_name(Config c) {
  switch (c) {
    case Config::kOff: return "off";
    case Config::kOn: return "on";
    case Config::kUnfair: return "unfair";
  }
  return "?";
}

struct Outcome {
  uint64_t committed = 0;
  uint64_t evicted = 0;
  uint64_t ct_size_peak = 0;   // max table size sampled per tick
  bool bounded = true;         // never observed above the cap
  size_t victim_survivors = 0; // victim conns still established at end
  uint64_t victim_est_delivered = 0;  // packets out the established route
  double cpu_cycles = 0;       // user+kernel delta over the storm
  uint64_t flows_peak = 0;     // max datapath flow count sampled per tick
  uint64_t flows_at_end = 0;
  std::vector<uint64_t> fingerprint;

  double goodput(const CostModel& cost) const {
    if (cpu_cycles <= 0) return 0;
    return static_cast<double>(victim_est_delivered) /
           cost.seconds(cpu_cycles);
  }
};

FlowKey conn_key(uint32_t id, uint16_t service, uint32_t in_port) {
  FlowKey k;
  k.set_in_port(in_port);
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kTcp);
  // 24 bits of connection id in the source address, the rest in the port:
  // unique per id across the whole universe.
  k.set_nw_src(Ipv4((10u << 24) | (id & 0xffffffu)));
  k.set_nw_dst(Ipv4(198, 51, 100, 1));
  k.set_tp_src(static_cast<uint16_t>(1024 + (id >> 24)));
  k.set_tp_dst(service);
  return k;
}

Outcome run_churn(Config config, const Params& P) {
  SwitchConfig cfg;
  cfg.flow_limit = 20000;
  cfg.datapath.conntrack.max_entries = P.ct_cap;
  cfg.datapath.conntrack.fair_eviction = config != Config::kUnfair;
  cfg.degradation.enabled = config != Config::kOff;
  Switch sw(cfg);
  for (uint32_t p : {kAttackPort, kVictimPort, kNewRoute, kEstRoute})
    sw.add_port(p);

  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "priority=35, tcp, tp_dst=%u, actions=ct(zone=1,table=2)",
                kAttackService);
  std::string err = sw.add_flow(buf, 0);
  std::snprintf(buf, sizeof(buf),
                "priority=35, tcp, tp_dst=%u, actions=ct(zone=2,table=2)",
                kVictimService);
  err += sw.add_flow(buf, 0);
  std::snprintf(buf, sizeof(buf),
                "table=2, priority=30, ct_state=1, actions=output:%u",
                kNewRoute);
  err += sw.add_flow(buf, 0);
  std::snprintf(buf, sizeof(buf),
                "table=2, priority=30, ct_state=2, actions=output:%u",
                kEstRoute);
  err += sw.add_flow(buf, 0);
  if (!err.empty()) {
    std::fprintf(stderr, "rule install failed: %s\n", err.c_str());
    std::exit(2);
  }

  VirtualClock clock;
  Rng rng(P.seed);

  // Warmup: the victim zone's connections commit and send one packet each,
  // so their established-route megaflows are cached before the storm.
  clock.advance(kSecond);
  for (uint32_t v = 0; v < P.victim_conns; ++v)
    sw.ct_commit(conn_key(v, kVictimService, kVictimPort), 2, clock.now());
  for (uint32_t v = 0; v < P.victim_conns; ++v)
    sw.inject(Packet{conn_key(v, kVictimService, kVictimPort)}, clock.now());
  sw.handle_upcalls(clock.now());
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());

  Outcome out;
  const double cpu0 = sw.cpu().user_cycles + sw.cpu().kernel_cycles;
  const uint64_t est0 = sw.port_stats(kEstRoute).tx_packets;

  // Storm: Zipf-churned attacker commits + first packets against the quiet
  // victim's steady established traffic.
  const auto zipf = [&]() -> uint32_t {
    const double u = rng.uniform_double();
    return static_cast<uint32_t>(
        static_cast<double>(P.conn_universe - 1) *
        std::pow(u, P.zipf_alpha));
  };
  for (size_t tick = 0; tick < P.ticks; ++tick) {
    for (size_t i = 0; i < P.attack_per_tick; ++i) {
      const uint32_t id = zipf();
      const FlowKey k = conn_key(id, kAttackService, kAttackPort);
      sw.ct_commit(k, 1, clock.now());
      sw.inject(Packet{k}, clock.now());
      if (rng.chance(P.remove_frac))
        sw.ct_remove(conn_key(zipf(), kAttackService, kAttackPort), 1);
    }
    for (size_t i = 0; i < P.victim_per_tick; ++i) {
      const uint32_t v = static_cast<uint32_t>(rng.uniform(P.victim_conns));
      sw.inject(Packet{conn_key(v, kVictimService, kVictimPort)}, clock.now());
    }
    sw.handle_upcalls(clock.now(), P.handler_budget);
    const uint64_t sz = sw.conntrack().size();
    out.ct_size_peak = std::max(out.ct_size_peak, sz);
    if (sz > P.ct_cap) out.bounded = false;
    out.flows_peak = std::max<uint64_t>(out.flows_peak,
                                        sw.backend().flow_count());
    clock.advance(kMillisecond);
    if ((tick + 1) % 50 == 0) sw.run_maintenance(clock.now());
  }

  out.cpu_cycles =
      sw.cpu().user_cycles + sw.cpu().kernel_cycles - cpu0;
  out.victim_est_delivered = sw.port_stats(kEstRoute).tx_packets - est0;
  for (uint32_t v = 0; v < P.victim_conns; ++v)
    if (sw.conntrack().lookup(conn_key(v, kVictimService, kVictimPort), 2) &
        ct_state::kEstablished)
      ++out.victim_survivors;

  const ConnTracker::Stats cs = sw.conntrack().stats();
  out.committed = cs.committed;
  out.evicted = cs.evicted_zone_cap + cs.evicted_global_cap;
  out.flows_at_end = sw.backend().flow_count();

  const Switch::Counters& c = sw.counters();
  const Datapath::Stats dp = sw.backend().stats();
  out.fingerprint = {cs.committed,
                     cs.refreshed,
                     cs.removed,
                     cs.evicted_zone_cap,
                     cs.evicted_global_cap,
                     sw.conntrack().generation(),
                     static_cast<uint64_t>(sw.conntrack().size()),
                     c.flow_setups,
                     c.upcalls_handled,
                     c.upcalls_dropped,
                     c.flow_limit_backoffs,
                     c.evicted_flow_limit,
                     c.tx_packets,
                     dp.packets,
                     dp.misses,
                     out.victim_est_delivered,
                     out.flows_at_end,
                     out.flows_peak,
                     out.ct_size_peak,
                     static_cast<uint64_t>(out.victim_survivors)};
  return out;
}

void print_row(Config cfg, const Outcome& o, const CostModel& cost) {
  std::printf(
      "%-7s %10llu %10llu %8llu %7s %9zu %12.0f %10llu %7llu\n",
      config_name(cfg), static_cast<unsigned long long>(o.committed),
      static_cast<unsigned long long>(o.evicted),
      static_cast<unsigned long long>(o.ct_size_peak),
      o.bounded ? "yes" : "NO", o.victim_survivors, o.goodput(cost),
      static_cast<unsigned long long>(o.flows_peak),
      static_cast<unsigned long long>(o.flows_at_end));
}

void report_run(BenchReport& report, Config cfg, const Outcome& o,
                const CostModel& cost) {
  const std::map<std::string, std::string> params = {
      {"config", config_name(cfg)}};
  report.add("committed", static_cast<double>(o.committed), params);
  report.add("evicted", static_cast<double>(o.evicted), params);
  report.add("ct_size_peak", static_cast<double>(o.ct_size_peak), params);
  report.add("victim_survivors", static_cast<double>(o.victim_survivors),
             params);
  report.add("victim_goodput_pps", o.goodput(cost), params,
             o.victim_est_delivered);
  report.add("flows_peak", static_cast<double>(o.flows_peak), params);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Params P;
  if (flags.boolean("quick", false)) {
    P.conn_universe = 200'000;
    P.ticks = 300;
    P.attack_per_tick = 1000;
    P.victim_per_tick = 250;
  }
  P.conn_universe = flags.u64("conns", P.conn_universe);
  P.ticks = flags.u64("ticks", P.ticks);
  P.attack_per_tick = flags.u64("attack_per_tick", P.attack_per_tick);
  P.ct_cap = flags.u64("ct_cap", P.ct_cap);
  P.zipf_alpha = flags.f64("zipf_alpha", P.zipf_alpha);
  P.flow_bound = flags.u64("flow_bound", P.flow_bound);
  P.seed = flags.u64("seed", P.seed);
  const CostModel cost;

  BenchReport report("conntrack_churn");
  std::printf("Conntrack churn: universe %zu conns (Zipf %.1f), cap %zu, "
              "%zu victim conns, %zu ticks x %zu commits\n",
              P.conn_universe, P.zipf_alpha, P.ct_cap, P.victim_conns,
              P.ticks, P.attack_per_tick);
  print_rule('=', 90);
  std::printf("%-7s %10s %10s %8s %7s %9s %12s %10s %7s\n", "config",
              "committed", "evicted", "ct_peak", "bounded", "survivors",
              "goodput_pps", "flows_peak", "flows");
  print_rule('-', 90);

  const Outcome off = run_churn(Config::kOff, P);
  print_row(Config::kOff, off, cost);
  report_run(report, Config::kOff, off, cost);
  const Outcome on = run_churn(Config::kOn, P);
  print_row(Config::kOn, on, cost);
  report_run(report, Config::kOn, on, cost);
  const Outcome unfair = run_churn(Config::kUnfair, P);
  print_row(Config::kUnfair, unfair, cost);
  report_run(report, Config::kUnfair, unfair, cost);
  const Outcome replay = run_churn(Config::kOn, P);
  print_rule('-', 90);

  const bool gate_bounded = off.bounded && on.bounded && unfair.bounded &&
                            replay.bounded;
  const bool gate_fair = on.victim_survivors == P.victim_conns &&
                         off.victim_survivors == P.victim_conns &&
                         unfair.victim_survivors * 2 <= P.victim_conns;
  const uint64_t flows_peak =
      std::max({off.flows_peak, on.flows_peak, unfair.flows_peak,
                replay.flows_peak});
  const bool gate_flows = flows_peak <= P.flow_bound;
  const bool deterministic = on.fingerprint == replay.fingerprint;

  std::printf("bounded memory (ct size <= %zu in all runs): %s\n", P.ct_cap,
              gate_bounded ? "PASS" : "FAIL");
  std::printf("eviction fairness: fair survivors %zu+%zu/%zu, unfair %zu "
              "[gate all/<=half: %s]\n",
              on.victim_survivors, off.victim_survivors, P.victim_conns,
              unfair.victim_survivors, gate_fair ? "PASS" : "FAIL");
  std::printf("churn mints no megaflows: peak %llu flows over %llu "
              "commits  [gate <= %zu: %s]\n",
              static_cast<unsigned long long>(flows_peak),
              static_cast<unsigned long long>(on.committed), P.flow_bound,
              gate_flows ? "PASS" : "FAIL");
  std::printf("deterministic replay from seed %llu: %s\n",
              static_cast<unsigned long long>(P.seed),
              deterministic ? "PASS" : "FAIL");

  report.add("flows_peak_max", static_cast<double>(flows_peak));
  report.add("deterministic", deterministic ? 1 : 0);
  report.write();

  const bool pass =
      gate_bounded && gate_fair && gate_flows && deterministic;
  if (pass) std::printf("PASS: all conntrack-churn gates met\n");
  return pass ? 0 : 1;
}
