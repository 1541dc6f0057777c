// Quantifies the two-tier tag fast path's error rates under MAC churn in a
// large L2 domain (ROADMAP: flip `reval_mode` default once measured).
//
// The 64-bit Bloom tags (§6) are a *conservative* summary of which MAC
// bindings a megaflow's translation consulted: a changed binding always
// sets the bit the dependent flows recorded, so a tag miss proves the flow
// cannot have gone stale from MAC churn — but with thousands of MACs
// hashed into 64 bits, unrelated flows alias onto changed bits and pay
// unnecessary re-translations. Two rates, measured against a
// full-re-translation oracle on the identical dump:
//
//   * false-skip rate — flows the tag path skipped whose oracle verdict
//     was a repair or delete. This is the soundness number: it must be 0
//     (< 1e-4 gates the kTwoTier default flip).
//   * alias rate — flows the tag path re-translated whose oracle verdict
//     was "unchanged". Pure cost, no correctness impact; expected to be
//     substantial once the domain saturates the 64-bit tag space.
//
// Exit status: 0 iff the false-skip gate holds on every measured round.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ofproto/mac_learning.h"
#include "util/rng.h"
#include "vswitchd/revalidator.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

using benchutil::BenchReport;
using benchutil::Flags;
using benchutil::print_rule;

struct Params {
  size_t n_hosts = 2048;     // L2 domain size (32x the 64-bit tag space)
  size_t churn_per_round = 8;  // MAC migrations between revalidation passes
  size_t n_rounds = 24;
  uint64_t seed = 17;
};

Packet eth_pkt(EthAddr src, EthAddr dst, uint32_t in_port) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(src);
  p.key.set_eth_dst(dst);
  p.size_bytes = 100;
  return p;
}

struct Totals {
  uint64_t examined = 0;
  uint64_t skipped = 0;        // tag path: not re-translated
  uint64_t retranslated = 0;   // tag path: paid the full translation
  uint64_t necessary = 0;      // oracle: verdict was repair/delete
  uint64_t false_skips = 0;    // skipped but oracle wanted a change
  uint64_t aliased = 0;        // re-translated but oracle saw no change
  uint64_t tag_bits_max = 0;   // popcount of changed_tags (saturation)
};

bool oracle_changed(RevalDecision::Kind k) {
  return k == RevalDecision::Kind::kUpdateActions ||
         k == RevalDecision::Kind::kDeleteStale ||
         k == RevalDecision::Kind::kDeleteIdle;
}

Totals run_measurement(const Params& p) {
  SwitchConfig cfg;
  cfg.degradation.enabled = false;
  cfg.dynamic_flow_limit = false;
  cfg.idle_timeout_ns = ~uint64_t{0} / 2;  // no idle churn in this study
  Switch sw(cfg);
  sw.table(0).add_flow(Match{}, 0, OfActions().normal());

  // Hosts 0..n-1 on ports 100.., sequential locally-administered MACs —
  // realistic tag aliasing, unlike the distinct-tag MACs the unit tests
  // use to make tag hits exact.
  std::vector<EthAddr> macs;
  std::vector<uint32_t> port_of(p.n_hosts);
  for (size_t i = 0; i < p.n_hosts; ++i) {
    macs.push_back(EthAddr(0x020000000000ULL + 1 + i));
    port_of[i] = static_cast<uint32_t>(100 + i);
    sw.add_port(port_of[i]);
  }

  // Warm: every host talks to a fixed peer, both directions, so each host
  // contributes megaflows that depend on two MAC bindings.
  uint64_t now = kMillisecond;
  for (size_t i = 0; i < p.n_hosts; ++i) {
    const size_t j = (i * 7 + 1) % p.n_hosts;
    sw.inject(eth_pkt(macs[i], macs[j], port_of[i]), now);
    sw.inject(eth_pkt(macs[j], macs[i], port_of[j]), now);
    if ((i & 63) == 63) sw.handle_upcalls(now);
  }
  sw.handle_upcalls(now);
  now += kMillisecond;
  sw.run_maintenance(now);  // settle the warm-up generation bumps

  Rng rng(p.seed);
  Totals t;
  for (size_t round = 0; round < p.n_rounds; ++round) {
    // Churn: migrate hosts to fresh ports (VM moves); each re-learn marks
    // the binding's tag changed.
    now += kMillisecond;
    for (size_t k = 0; k < p.churn_per_round; ++k) {
      const size_t h = rng.uniform(p.n_hosts);
      port_of[h] = static_cast<uint32_t>(100 + p.n_hosts + round * 64 + k);
      sw.add_port(port_of[h]);
      sw.pipeline().mac_learning().learn(macs[h], 0, port_of[h], now);
    }

    // Oracle comparison: plan the same dump twice, tags vs full.
    const uint64_t changed =
        sw.pipeline().mac_learning().take_changed_tags();
    t.tag_bits_max =
        std::max<uint64_t>(t.tag_bits_max, __builtin_popcountll(changed));
    const std::vector<Datapath::FlowRef> flows = sw.backend().dump();
    Revalidator::Config rc;
    rc.n_threads = 1;
    rc.idle_ns = cfg.idle_timeout_ns;
    rc.maybe_stale = true;
    RevalPlan tags_plan, full_plan;
    rc.use_tags = true;
    rc.changed_tags = changed;
    Revalidator::plan(sw.backend(), sw.pipeline(), flows, now, rc,
                      &tags_plan);
    rc.use_tags = false;
    Revalidator::plan(sw.backend(), sw.pipeline(), flows, now, rc,
                      &full_plan);

    for (size_t i = 0; i < flows.size(); ++i) {
      ++t.examined;
      const bool skipped =
          tags_plan.decisions[i].kind == RevalDecision::Kind::kSkipTags;
      const bool changed_oracle =
          oracle_changed(full_plan.decisions[i].kind);
      t.skipped += skipped;
      t.retranslated += !skipped;
      t.necessary += changed_oracle;
      t.false_skips += skipped && changed_oracle;
      t.aliased += !skipped && !changed_oracle;
    }

    // Repair through the switch's own full pass so staleness never
    // accumulates across rounds (each round measures one churn batch).
    now += kMillisecond;
    sw.run_maintenance(now);
  }
  return t;
}

}  // namespace
}  // namespace ovs

int main(int argc, char** argv) {
  using namespace ovs;
  Flags flags(argc, argv);
  Params p;
  if (flags.boolean("quick", false)) {
    p.n_hosts = 512;
    p.n_rounds = 8;
  }
  p.n_hosts = flags.u64("hosts", p.n_hosts);
  p.churn_per_round = flags.u64("churn", p.churn_per_round);
  p.n_rounds = flags.u64("rounds", p.n_rounds);
  p.seed = flags.u64("seed", p.seed);

  const Totals t = run_measurement(p);
  const Totals t2 = run_measurement(p);  // determinism check

  const double denom = t.examined ? static_cast<double>(t.examined) : 1.0;
  const double false_skip_rate = static_cast<double>(t.false_skips) / denom;
  const double alias_rate = static_cast<double>(t.aliased) / denom;
  const double skip_frac = static_cast<double>(t.skipped) / denom;

  print_rule('=');
  std::printf("bench_tag_alias: %zu hosts, %zu migrations/round, %zu "
              "rounds (seed %llu)\n",
              p.n_hosts, p.churn_per_round, p.n_rounds,
              static_cast<unsigned long long>(p.seed));
  print_rule();
  std::printf("flow-rounds examined      %llu\n",
              static_cast<unsigned long long>(t.examined));
  std::printf("tag path skipped          %llu (%.1f%%)\n",
              static_cast<unsigned long long>(t.skipped),
              100.0 * skip_frac);
  std::printf("oracle wanted a change    %llu\n",
              static_cast<unsigned long long>(t.necessary));
  std::printf("false skips (unsound)     %llu (rate %.2e)\n",
              static_cast<unsigned long long>(t.false_skips),
              false_skip_rate);
  std::printf("aliased re-translations   %llu (rate %.3f)\n",
              static_cast<unsigned long long>(t.aliased), alias_rate);
  std::printf("peak changed-tag bits     %llu / 64\n",
              static_cast<unsigned long long>(t.tag_bits_max));

  const bool gate_sound = false_skip_rate < 1e-4;
  const bool gate_deterministic = t.false_skips == t2.false_skips &&
                                  t.skipped == t2.skipped &&
                                  t.aliased == t2.aliased;
  print_rule();
  std::printf("[%s] false-skip rate %.2e < 1e-4\n",
              gate_sound ? "PASS" : "FAIL", false_skip_rate);
  std::printf("[%s] measurement deterministic across replays\n",
              gate_deterministic ? "PASS" : "FAIL");
  print_rule('=');

  BenchReport report("tag_alias");
  const std::map<std::string, std::string> params = {
      {"hosts", std::to_string(p.n_hosts)},
      {"churn", std::to_string(p.churn_per_round)},
      {"rounds", std::to_string(p.n_rounds)},
      {"seed", std::to_string(p.seed)}};
  report.add("examined", static_cast<double>(t.examined), params);
  report.add("skip_fraction", skip_frac, params);
  report.add("false_skip_rate", false_skip_rate, params);
  report.add("alias_rate", alias_rate, params);
  report.add("peak_changed_tag_bits", static_cast<double>(t.tag_bits_max),
             params);
  report.write();
  return gate_sound && gate_deterministic ? 0 : 1;
}
