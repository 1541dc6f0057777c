// Ablations for design choices the paper calls out but does not table:
//
//   A. Upcall batching (§4.1: "batching flow setups that arrive together
//      improved flow setup performance about 24%").
//   B. Tag-based (Bloom filter) vs. full revalidation (§6: tags were
//      abandoned once false positives made most flows revalidate anyway —
//      we measure both the win in the sparse-change regime and the decay
//      as changes accumulate).
//   C. Microflow cache (EMC) sizing: hit rate vs. active connections.
//   D. The §7.1 ICMP/port-trie bug: megaflow population with the bug
//      injected vs. fixed.
#include <cstdio>

#include "bench_common.h"
#include "sim/clock.h"
#include "workload/table_gen.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

Packet conn_packet(uint16_t sport, uint16_t dport = 9000) {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_src(EthAddr(0x02, 0, 0, 0, 0, 1));
  p.key.set_eth_dst(EthAddr(0x02, 0, 0, 0, 0, 2));
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(10, 1, 0, 1));
  p.key.set_nw_dst(Ipv4(9, 1, 1, 2));
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  return p;
}

void ablation_batching(BenchReport& report) {
  std::printf("\nA. Upcall batching (burst of concurrent misses)\n");
  print_rule();
  std::printf("%-12s %22s %14s\n", "mode", "user cycles per setup",
              "improvement");
  double per_setup[2] = {0, 0};
  int idx = 0;
  for (bool batching : {false, true}) {
    SwitchConfig cfg;
    cfg.batching = batching;
    cfg.upcall_batch = 64;
    // Force per-connection megaflows so every connection is a flow setup.
    cfg.megaflows_enabled = false;
    Switch sw(cfg);
    sw.add_port(1);
    sw.add_port(2);
    install_paper_microbench_table(sw, 2);
    const size_t kConns = 20000;
    size_t setups = 0;
    for (size_t burst = 0; burst < kConns / 64; ++burst) {
      for (size_t i = 0; i < 64; ++i)
        sw.inject(conn_packet(static_cast<uint16_t>(1024 + burst * 64 + i)),
                  0);
      setups += sw.handle_upcalls(0);
    }
    per_setup[idx] = sw.cpu().user_cycles / static_cast<double>(setups);
    report.add("user_cycles_per_setup", per_setup[idx],
               {{"ablation", "upcall_batching"},
                {"mode", batching ? "batched" : "unbatched"}},
               setups);
    std::printf("%-12s %22.0f %13.1f%%\n",
                batching ? "batched" : "unbatched", per_setup[idx],
                idx == 0 ? 0.0
                         : 100.0 * (per_setup[0] - per_setup[1]) /
                               per_setup[0]);
    ++idx;
  }
  std::printf("(paper: batching improved flow setup by about 24%%)\n");
  report.add("improvement_pct",
             100.0 * (per_setup[0] - per_setup[1]) / per_setup[0],
             {{"ablation", "upcall_batching"}});
}

void ablation_revalidation(BenchReport& report) {
  std::printf("\nB. Tag-based vs. full revalidation (NORMAL flows, one MAC "
              "moves)\n");
  print_rule();
  std::printf("%-8s %10s %14s %16s %18s\n", "mode", "flows", "MAC moves",
              "re-translations", "user cycles/reval");
  for (size_t moves : {1UL, 8UL, 32UL}) {
    for (RevalidationMode mode :
         {RevalidationMode::kFull, RevalidationMode::kTags}) {
      SwitchConfig cfg;
      cfg.reval_mode = mode;
      Switch sw(cfg);
      for (uint32_t p = 1; p <= 3; ++p) sw.add_port(p);
      sw.table(0).add_flow(Match{}, 0, OfActions().normal());
      VirtualClock clock;
      // Build a population of NORMAL megaflows across many MAC pairs.
      const size_t kPairs = 2000;
      for (size_t i = 0; i < kPairs; ++i) {
        Packet p;
        p.key.set_in_port(1 + (i % 2));
        p.key.set_eth_src(EthAddr(0x020000000000ULL | (i * 2)));
        p.key.set_eth_dst(EthAddr(0x020000000000ULL | (i * 2 + 1)));
        p.key.set_eth_type(ethertype::kIpv4);
        sw.inject(p, clock.now());
        sw.handle_upcalls(clock.now());
        // Teach the switch where the dst lives so flows actually forward.
        Packet r;
        r.key.set_in_port(3);
        r.key.set_eth_src(EthAddr(0x020000000000ULL | (i * 2 + 1)));
        r.key.set_eth_dst(EthAddr(0x020000000000ULL | (i * 2)));
        r.key.set_eth_type(ethertype::kIpv4);
        sw.inject(r, clock.now());
        sw.handle_upcalls(clock.now());
      }
      clock.advance(kSecond);
      sw.run_maintenance(clock.now());  // absorb learning churn

      // `moves` MACs move to another port.
      for (size_t i = 0; i < moves; ++i) {
        Packet m;
        m.key.set_in_port(2);
        m.key.set_eth_src(EthAddr(0x020000000000ULL | (i * 64 + 1)));
        m.key.set_eth_dst(EthAddr(0x02, 0, 0, 0, 0x99, 0x99));
        m.key.set_eth_type(ethertype::kIpv4);
        sw.inject(m, clock.now());
        sw.handle_upcalls(clock.now());
      }
      const double user0 = sw.cpu().user_cycles;
      const uint64_t skipped0 = sw.counters().reval_skipped_by_tags;
      const uint64_t examined0 = sw.counters().reval_flows_examined;
      clock.advance(kSecond);
      sw.run_maintenance(clock.now());
      const uint64_t examined =
          sw.counters().reval_flows_examined - examined0;
      const uint64_t retranslated =
          examined - (sw.counters().reval_skipped_by_tags - skipped0);
      std::printf("%-8s %10zu %14zu %16llu %18.0f\n",
                  mode == RevalidationMode::kTags ? "tags" : "full",
                  sw.backend().flow_count(), moves,
                  static_cast<unsigned long long>(retranslated),
                  sw.cpu().user_cycles - user0);
      report.add("retranslations", static_cast<double>(retranslated),
                 {{"ablation", "revalidation"},
                  {"mode", mode == RevalidationMode::kTags ? "tags" : "full"},
                  {"mac_moves", std::to_string(moves)}});
    }
  }
  std::printf("(§6: tags win when changes are rare; Bloom false positives\n"
              " erode the win as changes accumulate, which led OVS to drop\n"
              " tags for always-full revalidation)\n");
}

void ablation_emc_sizing(BenchReport& report) {
  std::printf("\nC. Microflow cache sizing (hit rate vs. active "
              "connections)\n");
  print_rule();
  std::printf("%12s | %10s %10s %10s\n", "connections", "EMC 1k", "EMC 8k",
              "EMC 64k");
  for (size_t conns : {512UL, 4096UL, 32768UL}) {
    std::printf("%12zu |", conns);
    for (size_t slots : {1024UL, 8192UL, 65536UL}) {
      DatapathConfig cfg;
      cfg.microflow_sets = slots / 2;
      cfg.microflow_ways = 2;
      Datapath dp(cfg);
      dp.install(MatchBuilder().ip(), DpActions().output(2), 0);
      Rng rng(slots + conns);
      // Round-robin over `conns` live connections.
      for (size_t i = 0; i < conns * 8; ++i) {
        Packet p = conn_packet(static_cast<uint16_t>(i % conns),
                               static_cast<uint16_t>(1000 + (i % conns) / 60000));
        dp.receive(p, i);
      }
      const auto& s = dp.stats();
      const double hit = static_cast<double>(s.microflow_hits) /
                         static_cast<double>(s.packets);
      std::printf(" %9.1f%%", 100 * hit);
      report.add("emc_hit_rate_pct", 100 * hit,
                 {{"ablation", "emc_sizing"},
                  {"connections", std::to_string(conns)},
                  {"emc_slots", std::to_string(slots)}},
                 conns * 8);
    }
    std::printf("\n");
  }
  std::printf("(the EMC only needs to cover the active working set; §4.2)\n");
}

void ablation_icmp_bug(BenchReport& report) {
  std::printf("\nD. The 7.1 ICMP/port-trie bug: megaflows per 1000 "
              "connections\n");
  print_rule();
  for (bool bug : {false, true}) {
    SwitchConfig cfg;
    cfg.classifier.icmp_port_trie_bug = bug;
    Switch sw(cfg);
    sw.add_port(1);
    sw.add_port(2);
    // An ACL table with both a TCP port ACL and an ICMP ACL.
    sw.table(0).add_flow(MatchBuilder().tcp().tp_dst(25), 100,
                         OfActions::drop());
    sw.table(0).add_flow(MatchBuilder().icmp().icmp_type(3).icmp_code(4), 90,
                         OfActions::drop());
    sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));
    // Clients hitting 1000 distinct services: with the port tries healthy,
    // prefix tracking keeps megaflows covering whole port ranges.
    for (uint16_t i = 0; i < 1000; ++i) {
      sw.inject(conn_packet(static_cast<uint16_t>(30000 + i),
                            static_cast<uint16_t>(2048 + i * 13)),
                0);
      sw.handle_upcalls(0);
    }
    std::printf("  %-18s %6zu megaflows\n", bug ? "bug injected:" : "fixed:",
                sw.backend().flow_count());
    report.add("megaflows_per_1k_conns",
               static_cast<double>(sw.backend().flow_count()),
               {{"ablation", "icmp_port_trie_bug"},
                {"bug", bug ? "injected" : "fixed"}});
  }
  std::printf("(with the bug, every TCP connection needs its own megaflow —\n"
              " the source of the >100%% CPU outliers in Figure 7)\n");
}

}  // namespace

int main(int, char**) {
  BenchReport report("ablations");
  std::printf("Ablation benches for design choices called out in the "
              "paper\n");
  print_rule('=');
  ablation_batching(report);
  ablation_revalidation(report);
  ablation_emc_sizing(report);
  ablation_icmp_bug(report);
  return 0;
}
