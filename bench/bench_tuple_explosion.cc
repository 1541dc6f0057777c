// Tuple-space explosion robustness bench (DESIGN.md §14): one attacker
// tenant installs pairwise-incomparable wildcard rules (constant-sum prefix
// quadruples, workload/explosion.h) and sprays packets whose unmasked bits
// are fresh noise, so every megaflow inherits a distinct fine mask and the
// kernel tuple space explodes — the Csikor et al. attack. A victim tenant
// carries ordinary service traffic through the same switch.
//
// Three defense configurations run the identical offered load:
//
//   off     — no cap, no partition, degradation policies disabled: the
//             historical switch, where the attacker's tuples tax every
//             victim lookup;
//   detect  — mask-explosion detector only (DegradationConfig subtable +
//             probe-EWMA triggers driving the AIMD flow-limit machine):
//             mitigation without admission control;
//   full    — per-tenant mask admission cap + tenant-partitioned classifier
//             + detector: the shipped defense stack.
//
// The bench prints a degradation curve (kernel tuples x victim model Mpps,
// defenses off vs. full, over an attacker rule-budget sweep) and gates by
// exit code:
//   1. full-defense victim goodput >= 5x the off ablation's at the largest
//      attack budget (goodput = victim packets delivered per modeled
//      kernel second — the attacker's per-lookup tuple tax is what sinks
//      the ablation);
//   2. full-defense victim p99 probe depth <= the configured budget
//      (mask cap + victim-mask slop), measured per victim inject from the
//      datapath tuples_searched delta;
//   3. zero misdelivery in every run: victim packets reach exactly the
//      victim egress port, attacker packets (drop rules) reach no port;
//   4. the admission cap holds exactly: installed attacker rules == cap,
//      the rest rejected;
//   5. the detector engages under full attack in the detect config;
//   6. deterministic replay: two full-defense runs from one seed produce
//      identical counter fingerprints.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "util/rng.h"
#include "vswitchd/switch.h"
#include "workload/explosion.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

constexpr uint32_t kAttackPort = 1;
constexpr uint32_t kVictimPort = 2;
constexpr uint32_t kVictimEgress = 12;
constexpr uint64_t kAttackTenant = 1;
constexpr uint64_t kVictimTenant = 2;
constexpr uint16_t kServices[] = {80, 443, 8080, 5001};

struct Params {
  double sim_seconds = 6;
  double attack_from = 1;      // attack window [from, to) in seconds
  double attack_to = 5;
  size_t attack_pps = 20000;
  size_t victim_pps = 4000;
  size_t victim_conns = 256;
  size_t max_rules = 1024;     // largest attacker rule budget in the sweep
  size_t mask_cap = 8;         // full-defense per-tenant admission cap
  size_t probe_budget_slop = 8;  // victim masks + measurement slack
  size_t detect_subtables = 64;
  double detect_probe_ewma = 32;
  size_t handler_budget = 32;  // upcalls serviced per 1 ms tick
  uint64_t seed = 11;

  size_t probe_budget() const { return mask_cap + probe_budget_slop; }
};

enum class Defense { kOff, kDetect, kFull };

const char* defense_name(Defense d) {
  switch (d) {
    case Defense::kOff: return "off";
    case Defense::kDetect: return "detect";
    case Defense::kFull: return "full";
  }
  return "?";
}

struct Outcome {
  // Attack-window measurements.
  uint64_t victim_offered = 0;
  uint64_t victim_delivered = 0;
  uint64_t attack_offered = 0;
  double kernel_cycles = 0;      // Switch cpu() delta over the window
  uint64_t probe_p99 = 0;        // p99 tuples searched per victim inject
  uint64_t dp_masks_peak = 0;    // kernel tuple count, sampled each tick
  size_t cls_subtables = 0;      // userspace subtables at window end
  // Whole-run counters.
  uint64_t misdelivered = 0;
  size_t rules_installed = 0;
  size_t rules_rejected = 0;
  uint64_t detector_engaged = 0;
  uint64_t flows_at_end = 0;
  std::vector<uint64_t> fingerprint;

  // Victim packets per modeled kernel second, in Mpps: the attacker's
  // per-lookup tuple tax inflates the denominator, which is the damage.
  double victim_mpps(const CostModel& cost) const {
    if (kernel_cycles <= 0) return 0;
    return static_cast<double>(victim_delivered) /
           cost.seconds(kernel_cycles) / 1e6;
  }
};

struct VictimConn {
  uint32_t src = 0;
  uint16_t sport = 0;
  uint16_t service = 0;
};

Packet victim_packet(const VictimConn& c) {
  Packet p;
  p.key.set_in_port(kVictimPort);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set(FieldId::kNwSrc, c.src);
  p.key.set(FieldId::kNwDst, Ipv4(10, 200, 0, 1).value());
  p.key.set(FieldId::kTpSrc, c.sport);
  p.key.set(FieldId::kTpDst, c.service);
  return p;
}

Outcome run_attack(Defense d, size_t n_rules, const Params& P) {
  SwitchConfig cfg;
  cfg.flow_limit = 20000;
  cfg.degradation.enabled = d != Defense::kOff;
  if (d != Defense::kOff) {
    cfg.degradation.mask_explosion_subtables = P.detect_subtables;
    cfg.degradation.mask_probe_ewma_threshold = P.detect_probe_ewma;
  }
  if (d == Defense::kFull) {
    cfg.max_masks_per_tenant = P.mask_cap;
    cfg.classifier.tenant_partition = true;
  }
  Switch sw(cfg);
  sw.add_port(kAttackPort);
  sw.add_port(kVictimPort);
  sw.add_port(kVictimEgress);

  // Table 0 stamps the tenant (metadata) from the ingress port, table 1
  // holds per-tenant policy: the victim's service allows and, once the
  // attack starts, the attacker's explosion rules.
  sw.table(0).add_flow(
      MatchBuilder().in_port(kAttackPort), 10,
      OfActions().set_field(FieldId::kMetadata, kAttackTenant).resubmit(1));
  sw.table(0).add_flow(
      MatchBuilder().in_port(kVictimPort), 10,
      OfActions().set_field(FieldId::kMetadata, kVictimTenant).resubmit(1));
  for (uint16_t svc : kServices)
    sw.table(1).add_flow(
        MatchBuilder().metadata(kVictimTenant).tcp().tp_dst(svc), 10,
        OfActions().output(kVictimEgress));

  Outcome out;
  sw.set_output_handler([&out](uint32_t port, const Packet& pkt) {
    if (port != kVictimEgress ||
        pkt.key.get(FieldId::kInPort) != kVictimPort)
      ++out.misdelivered;
  });

  Rng rng(P.seed);
  std::vector<VictimConn> conns(P.victim_conns);
  for (auto& c : conns) {
    c.src = Ipv4(10, 100, static_cast<uint8_t>(rng.uniform(256)),
                 static_cast<uint8_t>(rng.uniform(256)))
                .value();
    c.sport = static_cast<uint16_t>(rng.range(1024, 65535));
    c.service = kServices[rng.uniform(std::size(kServices))];
  }

  ExplosionConfig ec;
  ec.tenant = kAttackTenant;
  ec.n_rules = n_rules;
  ec.in_port = kAttackPort;
  ec.seed = P.seed ^ 0xa77acull;
  ExplosionWorkload attack(ec);

  VirtualClock clock;
  const auto ticks = static_cast<size_t>(P.sim_seconds * 1000.0);
  const auto attack_first = static_cast<size_t>(P.attack_from * 1000.0);
  const auto attack_last = static_cast<size_t>(P.attack_to * 1000.0);

  double kernel0 = 0;
  uint64_t victim_tx0 = 0;
  std::vector<uint64_t> victim_probes;
  victim_probes.reserve((attack_last - attack_first) * P.victim_pps / 1000);

  for (size_t tick = 0; tick < ticks; ++tick) {
    const bool attack_on =
        n_rules > 0 && tick >= attack_first && tick < attack_last;
    if (tick == attack_first) {
      if (n_rules > 0) {
        const ExplosionInstall ins = install_explosion_rules(sw, 1, ec);
        out.rules_installed = ins.installed;
        out.rules_rejected = ins.rejected;
      }
      kernel0 = sw.cpu().kernel_cycles;
      victim_tx0 = sw.port_stats(kVictimEgress).tx_packets;
    }

    if (attack_on) {
      const size_t n = P.attack_pps / 1000;
      for (size_t i = 0; i < n; ++i)
        sw.inject(attack.next(), clock.now());
      out.attack_offered += n;
    }
    const bool windowed = tick >= attack_first && tick < attack_last;
    const size_t nv = P.victim_pps / 1000;
    for (size_t i = 0; i < nv; ++i) {
      const Packet p = victim_packet(conns[rng.uniform(conns.size())]);
      if (windowed) {
        const uint64_t t0 = sw.backend().stats().tuples_searched;
        sw.inject(p, clock.now());
        victim_probes.push_back(sw.backend().stats().tuples_searched - t0);
      } else {
        sw.inject(p, clock.now());
      }
    }
    if (windowed) {
      out.victim_offered += nv;
      out.dp_masks_peak =
          std::max(out.dp_masks_peak,
                   static_cast<uint64_t>(sw.backend().mask_count()));
    }

    sw.handle_upcalls(clock.now(), P.handler_budget);
    clock.advance(kMillisecond);
    if ((tick + 1) % 250 == 0) sw.run_maintenance(clock.now());

    if (tick + 1 == attack_last) {
      out.kernel_cycles = sw.cpu().kernel_cycles - kernel0;
      out.victim_delivered =
          sw.port_stats(kVictimEgress).tx_packets - victim_tx0;
      out.cls_subtables = sw.cls_subtables();
    }
  }

  if (!victim_probes.empty()) {
    std::sort(victim_probes.begin(), victim_probes.end());
    out.probe_p99 = victim_probes[(victim_probes.size() - 1) * 99 / 100];
  }

  const Switch::Counters& c = sw.counters();
  out.detector_engaged = c.mask_explosion_engaged;
  out.flows_at_end = sw.backend().flow_count();
  const Datapath::Stats& dp = sw.backend().stats();
  out.fingerprint = {c.flow_setups,
                     c.upcalls_handled,
                     c.upcalls_dropped,
                     c.install_fails,
                     c.flow_limit_backoffs,
                     c.flow_adds_attempted,
                     c.flow_adds_admitted,
                     c.rules_rejected_mask_cap,
                     c.mask_explosion_engaged,
                     c.evicted_flow_limit,
                     c.tx_packets,
                     dp.packets,
                     dp.misses,
                     dp.tuples_searched,
                     dp.emc_inserts,
                     out.flows_at_end,
                     out.victim_delivered,
                     out.misdelivered,
                     out.dp_masks_peak,
                     out.probe_p99,
                     static_cast<uint64_t>(out.cls_subtables)};
  return out;
}

void print_row(size_t rules, Defense d, const Outcome& o,
               const CostModel& cost) {
  std::printf("%7zu %-7s %9llu %9zu %12.3f %10llu %9zu %8llu %7llu\n", rules,
              defense_name(d),
              static_cast<unsigned long long>(o.dp_masks_peak),
              o.cls_subtables, o.victim_mpps(cost),
              static_cast<unsigned long long>(o.probe_p99), o.rules_rejected,
              static_cast<unsigned long long>(o.detector_engaged),
              static_cast<unsigned long long>(o.misdelivered));
}

void report_run(BenchReport& report, size_t rules, Defense d,
                const Outcome& o, const CostModel& cost) {
  const std::map<std::string, std::string> params = {
      {"rules", std::to_string(rules)}, {"defense", defense_name(d)}};
  report.add("victim_mpps", o.victim_mpps(cost), params, o.victim_offered);
  report.add("dp_masks_peak", static_cast<double>(o.dp_masks_peak), params);
  report.add("cls_subtables", static_cast<double>(o.cls_subtables), params);
  report.add("victim_probe_p99", static_cast<double>(o.probe_p99), params,
             o.victim_offered);
  report.add("rules_rejected", static_cast<double>(o.rules_rejected), params);
  report.add("detector_engaged", static_cast<double>(o.detector_engaged),
             params);
  report.add("misdelivered", static_cast<double>(o.misdelivered), params);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Params P;
  if (flags.boolean("quick", false)) {
    P.sim_seconds = 2.5;
    P.attack_from = 0.5;
    P.attack_to = 2;
    P.attack_pps = 10000;
    P.victim_pps = 2000;
    P.max_rules = 512;
  }
  P.sim_seconds = flags.f64("seconds", P.sim_seconds);
  P.attack_pps = flags.u64("attack_pps", P.attack_pps);
  P.victim_pps = flags.u64("victim_pps", P.victim_pps);
  P.max_rules = flags.u64("rules", P.max_rules);
  P.mask_cap = flags.u64("mask_cap", P.mask_cap);
  P.seed = flags.u64("seed", P.seed);
  const CostModel cost;

  BenchReport report("tuple_explosion");
  std::printf("Tuple-space explosion: attacker tenant %llu, %zu rules max, "
              "%zu pps; victim %zu pps; mask cap %zu\n",
              static_cast<unsigned long long>(kAttackTenant), P.max_rules,
              P.attack_pps, P.victim_pps, P.mask_cap);
  print_rule('=');
  std::printf("%7s %-7s %9s %9s %12s %10s %9s %8s %7s\n", "rules", "defense",
              "dp_masks", "subtbl", "victim_Mpps", "probe_p99", "rejected",
              "engaged", "misdel");
  print_rule();

  // Degradation curve: attacker rule budget x {off, full}. The two runs at
  // the largest budget double as the gated ablation and hardened runs.
  std::vector<size_t> budgets = {0, P.max_rules / 8, P.max_rules / 2,
                                 P.max_rules};
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
  Outcome ablation, hardened;
  for (size_t rules : budgets) {
    for (Defense d : {Defense::kOff, Defense::kFull}) {
      const Outcome o = run_attack(d, rules, P);
      print_row(rules, d, o, cost);
      report_run(report, rules, d, o, cost);
      if (rules == P.max_rules) (d == Defense::kOff ? ablation : hardened) = o;
    }
  }
  const Outcome detect = run_attack(Defense::kDetect, P.max_rules, P);
  print_row(P.max_rules, Defense::kDetect, detect, cost);
  report_run(report, P.max_rules, Defense::kDetect, detect, cost);
  const Outcome replay = run_attack(Defense::kFull, P.max_rules, P);
  print_rule();

  const double ratio =
      hardened.victim_mpps(cost) / std::max(1e-9, ablation.victim_mpps(cost));
  const uint64_t misdelivered = ablation.misdelivered + hardened.misdelivered +
                                detect.misdelivered + replay.misdelivered;
  const size_t want_installed = std::min(P.max_rules, P.mask_cap);

  const bool gate_goodput = ratio >= 5.0;
  const bool gate_probe = hardened.probe_p99 <= P.probe_budget();
  const bool gate_misdeliver = misdelivered == 0;
  const bool gate_cap = hardened.rules_installed == want_installed &&
                        hardened.rules_rejected == P.max_rules - want_installed;
  const bool gate_detect = detect.detector_engaged >= 1;
  const bool deterministic = hardened.fingerprint == replay.fingerprint;

  std::printf("victim goodput ratio (full / off): %.1fx  [gate >= 5.0: %s]\n",
              ratio, gate_goodput ? "PASS" : "FAIL");
  std::printf("full-defense victim probe p99: %llu  [gate <= %zu: %s]\n",
              static_cast<unsigned long long>(hardened.probe_p99),
              P.probe_budget(), gate_probe ? "PASS" : "FAIL");
  std::printf("misdelivered packets across all runs: %llu  [gate == 0: %s]\n",
              static_cast<unsigned long long>(misdelivered),
              gate_misdeliver ? "PASS" : "FAIL");
  std::printf("admission cap: installed %zu rejected %zu  "
              "[gate == %zu/%zu: %s]\n",
              hardened.rules_installed, hardened.rules_rejected,
              want_installed, P.max_rules - want_installed,
              gate_cap ? "PASS" : "FAIL");
  std::printf("detector engagements (detect config): %llu  [gate >= 1: %s]\n",
              static_cast<unsigned long long>(detect.detector_engaged),
              gate_detect ? "PASS" : "FAIL");
  std::printf("deterministic replay from seed %llu: %s\n",
              static_cast<unsigned long long>(P.seed),
              deterministic ? "PASS" : "FAIL");

  report.add("goodput_ratio", ratio);
  report.add("deterministic", deterministic ? 1 : 0);
  report.write();

  const bool pass = gate_goodput && gate_probe && gate_misdeliver &&
                    gate_cap && gate_detect && deterministic;
  if (pass) std::printf("PASS: all tuple-explosion gates met\n");
  return pass ? 0 : 1;
}
