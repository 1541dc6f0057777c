// Upcall-storm robustness bench: one adversarial port floods the slow path
// with fresh connections (a port scan / SYN flood — every packet a new
// 5-tuple, so every packet is a flow setup) while three victim ports carry
// ordinary churning traffic. The flow cache is exact-match (megaflows
// disabled, Table 1's row), so every connection installs its own flow.
//
// Two configurations run the identical offered load:
//
//   hardened  — bounded per-port fair upcall queue + graceful-degradation
//               policies (the defaults);
//   ablation  — historical FIFO upcall queue (fair=false) with degradation
//               policies disabled: the storm and the victims share one
//               unbounded-order queue and a single global cap.
//
// Gates (exit non-zero on failure, so CI can run this as a check):
//   1. hardened victim goodput >= 2x the ablation's during the storm;
//   2. every victim port's flow-setup share within 25% of the victim mean
//      (the fair-dequeue guarantee);
//   3. the hardened run is deterministic: two runs from the same seed
//      produce identical counters.
//
// Goodput is delivered victim packets per simulated second during the storm
// window: a victim packet is lost only if its flow setup was refused by the
// overloaded slow path (misses that reach a handler are forwarded when
// handled).
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/clock.h"
#include "util/rng.h"
#include "vswitchd/switch.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

constexpr uint32_t kStormPort = 1;
constexpr std::array<uint32_t, 3> kVictimPorts = {2, 3, 4};
// Each ingress port forwards to its own egress port so delivered packets
// can be attributed per source.
constexpr uint32_t egress_of(uint32_t in) { return 10 + in; }

struct Params {
  double sim_seconds = 10;
  double storm_from = 1;       // storm window [from, to) in seconds
  double storm_to = 9;
  size_t storm_pps = 32000;    // every packet a fresh connection
  size_t victim_pps = 2000;    // per victim port
  size_t victim_conns = 300;   // live connections per victim port
  double victim_churn = 600;   // connections replaced / s / port (short-lived)
  size_t handler_budget = 16;  // upcalls serviced per 1 ms tick
  uint64_t seed = 7;
};

struct Outcome {
  // Storm-window deltas.
  uint64_t victim_offered = 0;
  uint64_t victim_delivered = 0;
  uint64_t storm_offered = 0;
  uint64_t storm_delivered = 0;
  std::array<uint64_t, 3> victim_installs{};
  // Whole-run robustness counters.
  uint64_t upcalls_dropped = 0;
  uint64_t upcalls_retried = 0;
  uint64_t flow_limit_backoffs = 0;
  uint64_t emc_degrade_engaged = 0;
  uint64_t reval_overruns = 0;
  uint64_t flows_at_end = 0;
  // Every counter that must replay identically from a fixed seed.
  std::vector<uint64_t> fingerprint;

  double victim_goodput(const Params& p) const {
    return static_cast<double>(victim_delivered) /
           (p.storm_to - p.storm_from);
  }
};

struct VictimState {
  struct Conn {
    Ipv4 src{0};
    uint16_t sport = 0;
  };
  std::vector<Conn> conns;
  double churn_carry = 0;
};

Packet make_packet(uint32_t in_port, Ipv4 src, uint16_t sport) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(src);
  p.key.set_nw_dst(Ipv4(9, 9, 9, 9));
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(80);
  return p;
}

Outcome run_storm(bool hardened, const Params& P) {
  SwitchConfig cfg;
  cfg.upcall_queue.fair = hardened;
  cfg.upcall_queue.per_port_quota = 512;
  cfg.upcall_queue.global_cap = 4096;
  cfg.degradation.enabled = hardened;
  cfg.flow_limit = 50000;
  cfg.megaflows_enabled = false;
  Switch sw(cfg);
  sw.add_port(kStormPort);
  for (uint32_t p : kVictimPorts) sw.add_port(p);

  // Forward by ingress port; the exact-match cache makes every connection
  // its own flow.
  sw.table(0).add_flow(MatchBuilder().in_port(kStormPort), 10,
                       OfActions().output(egress_of(kStormPort)));
  for (uint32_t p : kVictimPorts)
    sw.table(0).add_flow(MatchBuilder().in_port(p), 10,
                         OfActions().output(egress_of(p)));

  Rng rng(P.seed);
  std::array<VictimState, 3> victims;
  for (size_t v = 0; v < victims.size(); ++v) {
    victims[v].conns.resize(P.victim_conns);
    for (auto& c : victims[v].conns) {
      c.src = Ipv4(10, static_cast<uint8_t>(20 + v),
                   static_cast<uint8_t>(rng.uniform(256)),
                   static_cast<uint8_t>(rng.uniform(256)));
      c.sport = static_cast<uint16_t>(rng.range(1024, 65535));
    }
  }
  // The storm's fresh-connection generator: a counter walked through a
  // disjoint address block so no 5-tuple ever repeats within the run.
  uint64_t storm_seq = 0;

  VirtualClock clock;
  constexpr uint64_t kTick = kMillisecond;
  const auto ticks = static_cast<size_t>(P.sim_seconds * 1000.0);
  const auto storm_first = static_cast<size_t>(P.storm_from * 1000.0);
  const auto storm_last = static_cast<size_t>(P.storm_to * 1000.0);

  Outcome out;
  uint64_t victim_tx0 = 0, storm_tx0 = 0;
  std::array<uint64_t, 3> installs0{};

  for (size_t tick = 0; tick < ticks; ++tick) {
    const bool storm_on = tick >= storm_first && tick < storm_last;
    if (tick == storm_first) {
      for (size_t v = 0; v < victims.size(); ++v)
        installs0[v] = sw.port_upcall_stats(kVictimPorts[v]).installs;
      for (uint32_t p : kVictimPorts)
        victim_tx0 += sw.port_stats(egress_of(p)).tx_packets;
      storm_tx0 = sw.port_stats(egress_of(kStormPort)).tx_packets;
    }

    if (storm_on) {
      const size_t n = P.storm_pps / 1000;
      for (size_t i = 0; i < n; ++i, ++storm_seq) {
        const Ipv4 src(172, static_cast<uint8_t>(16 + (storm_seq >> 22)),
                       static_cast<uint8_t>(storm_seq >> 14),
                       static_cast<uint8_t>(storm_seq >> 6));
        const auto sport = static_cast<uint16_t>(1024 + (storm_seq & 0x3F));
        sw.inject(make_packet(kStormPort, src, sport), clock.now());
      }
      out.storm_offered += n;
    }
    for (size_t v = 0; v < victims.size(); ++v) {
      VictimState& vs = victims[v];
      vs.churn_carry += P.victim_churn / 1000.0;
      while (vs.churn_carry >= 1.0) {
        vs.churn_carry -= 1.0;
        auto& c = vs.conns[rng.uniform(vs.conns.size())];
        c.src = Ipv4(10, static_cast<uint8_t>(20 + v),
                     static_cast<uint8_t>(rng.uniform(256)),
                     static_cast<uint8_t>(rng.uniform(256)));
        c.sport = static_cast<uint16_t>(rng.range(1024, 65535));
      }
      const size_t n = P.victim_pps / 1000;
      for (size_t i = 0; i < n; ++i) {
        const auto& c = vs.conns[rng.uniform(vs.conns.size())];
        sw.inject(make_packet(kVictimPorts[v], c.src, c.sport), clock.now());
      }
      if (storm_on) out.victim_offered += n;
    }

    sw.handle_upcalls(clock.now(), P.handler_budget);
    clock.advance(kTick);
    if ((tick + 1) % 1000 == 0) sw.run_maintenance(clock.now());

    // Close the measurement window when the storm ends: deliveries and
    // installs are counted over exactly the interval the offers were.
    if (tick + 1 == storm_last) {
      uint64_t victim_tx1 = 0;
      for (uint32_t p : kVictimPorts)
        victim_tx1 += sw.port_stats(egress_of(p)).tx_packets;
      out.victim_delivered = victim_tx1 - victim_tx0;
      out.storm_delivered =
          sw.port_stats(egress_of(kStormPort)).tx_packets - storm_tx0;
      for (size_t v = 0; v < victims.size(); ++v)
        out.victim_installs[v] =
            sw.port_upcall_stats(kVictimPorts[v]).installs - installs0[v];
    }
  }

  const Switch::Counters& c = sw.counters();
  out.upcalls_dropped = c.upcalls_dropped;
  out.upcalls_retried = c.upcalls_retried;
  out.flow_limit_backoffs = c.flow_limit_backoffs;
  out.emc_degrade_engaged = c.emc_degrade_engaged;
  out.reval_overruns = c.reval_overruns;
  out.flows_at_end = sw.backend().flow_count();
  const Datapath::Stats& d = sw.backend().stats();
  out.fingerprint = {c.flow_setups,      c.setup_dups,
                     c.install_fails,    c.upcalls_handled,
                     c.upcalls_dropped,  c.upcalls_retried,
                     c.retry_abandoned,  c.flow_limit_backoffs,
                     c.reval_overruns,   c.emc_degrade_engaged,
                     c.evicted_flow_limit, c.tx_packets,
                     d.packets,          d.misses,
                     d.upcall_drops,     d.emc_insert_skips,
                     out.flows_at_end,   out.victim_delivered};
  return out;
}

void print_outcome(const char* name, const Outcome& o, const Params& P) {
  const double vd = 100.0 * static_cast<double>(o.victim_delivered) /
                    static_cast<double>(o.victim_offered);
  std::printf("%-10s %10.0f %7.1f%% %9llu %9llu %8llu %8llu %7llu\n", name,
              o.victim_goodput(P), vd,
              static_cast<unsigned long long>(o.upcalls_dropped),
              static_cast<unsigned long long>(o.upcalls_retried),
              static_cast<unsigned long long>(o.flow_limit_backoffs),
              static_cast<unsigned long long>(o.emc_degrade_engaged),
              static_cast<unsigned long long>(o.flows_at_end));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Params P;
  if (flags.boolean("quick", false)) {
    P.sim_seconds = 3;
    P.storm_from = 0.5;
    P.storm_to = 2.5;
  }
  P.sim_seconds = flags.f64("seconds", P.sim_seconds);
  P.storm_pps = flags.u64("storm_pps", P.storm_pps);
  P.victim_pps = flags.u64("victim_pps", P.victim_pps);
  P.handler_budget = flags.u64("budget", P.handler_budget);
  P.seed = flags.u64("seed", P.seed);

  BenchReport report("upcall_storm");
  std::printf("Upcall storm: port %u floods %zu fresh conns/s; victims %zu "
              "pps each, %.0f conns/s churn; handler budget %zu/ms\n",
              kStormPort, P.storm_pps, P.victim_pps, P.victim_churn,
              P.handler_budget);
  print_rule('=');
  std::printf("%-10s %10s %8s %9s %9s %8s %8s %7s\n", "config",
              "victim_pps", "deliv%", "drops", "retries", "backoff",
              "emc_deg", "flows");
  print_rule();

  const Outcome hardened = run_storm(true, P);
  const Outcome replay = run_storm(true, P);
  const Outcome ablation = run_storm(false, P);
  print_outcome("hardened", hardened, P);
  print_outcome("fifo_off", ablation, P);
  print_rule();

  const double ratio = hardened.victim_goodput(P) /
                       std::max(1.0, ablation.victim_goodput(P));

  // Fairness: each victim port's storm-window install share vs. their mean.
  uint64_t total_installs = 0;
  for (uint64_t i : hardened.victim_installs) total_installs += i;
  const double mean =
      static_cast<double>(total_installs) /
      static_cast<double>(hardened.victim_installs.size());
  double worst_dev = 0;
  for (uint64_t i : hardened.victim_installs)
    worst_dev = std::max(worst_dev,
                         std::abs(static_cast<double>(i) - mean) / mean);

  const bool deterministic = hardened.fingerprint == replay.fingerprint;
  const bool gate_goodput = ratio >= 2.0;
  const bool gate_fair = worst_dev <= 0.25;

  std::printf("victim goodput ratio (hardened / ablation): %.2fx  "
              "[gate >= 2.0: %s]\n", ratio, gate_goodput ? "PASS" : "FAIL");
  std::printf("victim install share worst deviation: %.1f%%  "
              "[gate <= 25%%: %s]\n", 100 * worst_dev,
              gate_fair ? "PASS" : "FAIL");
  std::printf("deterministic replay from seed %llu: %s\n",
              static_cast<unsigned long long>(P.seed),
              deterministic ? "PASS" : "FAIL");

  for (const auto* o : {&hardened, &ablation}) {
    const std::string series = o == &hardened ? "hardened" : "degradation_off";
    report.add("victim_goodput_pps", o->victim_goodput(P),
               {{"series", series}}, o->victim_offered);
    report.add("victim_delivery_frac",
               static_cast<double>(o->victim_delivered) /
                   static_cast<double>(o->victim_offered),
               {{"series", series}});
    report.add("upcalls_dropped", static_cast<double>(o->upcalls_dropped),
               {{"series", series}});
    report.add("upcalls_retried", static_cast<double>(o->upcalls_retried),
               {{"series", series}});
    report.add("flow_limit_backoffs",
               static_cast<double>(o->flow_limit_backoffs),
               {{"series", series}});
  }
  report.add("goodput_ratio", ratio);
  report.add("install_share_worst_dev", worst_dev);
  report.add("deterministic", deterministic ? 1 : 0);
  for (size_t v = 0; v < hardened.victim_installs.size(); ++v)
    report.add("victim_installs",
               static_cast<double>(hardened.victim_installs[v]),
               {{"series", "hardened"},
                {"port", std::to_string(kVictimPorts[v])}});
  report.write();

  return gate_goodput && gate_fair && deterministic ? 0 : 1;
}
