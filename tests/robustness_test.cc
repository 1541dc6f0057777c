// Robustness and failure-injection tests: churn fuzzing, storm handling,
// convergence under continuous change, parser fuzzing, and accounting
// invariants.
#include <gtest/gtest.h>

#include "packet/parser.h"
#include "sim/clock.h"
#include "test_util.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

using testutil::RuleSet;
using testutil::TestRule;

// Interleaved insert/remove/lookup fuzz against the linear oracle, with
// wildcard soundness spot checks. This is the "updates happen constantly in
// large deployments" scenario of §2.
class ChurnFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnFuzzTest, OracleAgreementUnderChurn) {
  Rng rng(GetParam());
  RuleSet rs;  // all optimizations on
  std::vector<TestRule*> live;
  int prio = 1;
  for (int step = 0; step < 4000; ++step) {
    const double r = rng.uniform_double();
    if (r < 0.35 || live.empty()) {
      live.push_back(rs.add(testutil::random_match(rng), prio++, step));
    } else if (r < 0.55) {
      const size_t victim = rng.uniform(live.size());
      rs.remove(live[victim]);
      live.erase(live.begin() + static_cast<long>(victim));
    } else {
      const FlowKey pkt = testutil::random_packet(rng);
      FlowWildcards wc;
      const Rule* got = rs.classifier().lookup(pkt, &wc);
      const TestRule* want = rs.naive_lookup(pkt);
      if (want == nullptr) {
        ASSERT_EQ(got, nullptr) << "step " << step;
      } else {
        ASSERT_NE(got, nullptr) << "step " << step;
        ASSERT_EQ(static_cast<const TestRule*>(got)->priority(),
                  want->priority());
      }
      // Occasional soundness check.
      if (step % 7 == 0) {
        FlowKey mutant = pkt;
        for (size_t w = 0; w < kFlowWords; ++w)
          mutant.w[w] ^= rng.next() & ~wc.w[w];
        const TestRule* mw = rs.naive_lookup(mutant);
        if (want == nullptr)
          ASSERT_EQ(mw, nullptr) << "step " << step;
        else
          ASSERT_EQ(mw->priority(), want->priority()) << "step " << step;
      }
    }
  }
  // Drain: remove everything; classifier must end empty and consistent.
  for (TestRule* r : live) rs.remove(r);
  EXPECT_EQ(rs.classifier().rule_count(), 0u);
  EXPECT_EQ(rs.classifier().tuple_count(), 0u);
  EXPECT_EQ(rs.classifier().lookup(testutil::random_packet(rng)), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(StormTest, UpcallQueueOverflowRecovers) {
  // A connection storm overwhelms the bounded upcall queue; drops are
  // counted, nothing corrupts, and the system recovers once the daemon
  // catches up (§2: "port scans ... must be supported gracefully").
  SwitchConfig cfg;
  cfg.upcall_queue.per_port_quota = 128;
  cfg.upcall_queue.global_cap = 128;
  cfg.megaflows_enabled = false;  // every connection is a miss
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  // Burst 10k distinct connections with no upcall processing.
  for (uint32_t i = 0; i < 10000; ++i) {
    Packet p;
    p.key.set_in_port(1);
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_proto(ipproto::kTcp);
    p.key.set_nw_src(Ipv4(10, 0, static_cast<uint8_t>(i >> 8),
                          static_cast<uint8_t>(i)));
    p.key.set_nw_dst(Ipv4(9, 1, 1, 2));
    p.key.set_tp_src(static_cast<uint16_t>(1024 + (i % 60000)));
    p.key.set_tp_dst(80);
    sw.inject(p, 0);
  }
  EXPECT_EQ(sw.upcall_queue_depth(), 128u);
  EXPECT_EQ(sw.counters().upcalls_dropped, 10000u - 128u);
  // The datapath records the sink refusals as its own upcall drops.
  EXPECT_EQ(sw.backend().stats().upcall_drops, 10000u - 128u);

  // Daemon catches up; the queued 128 become flows.
  EXPECT_EQ(sw.handle_upcalls(0), 128u);
  EXPECT_EQ(sw.backend().flow_count(), 128u);
  EXPECT_EQ(sw.counters().upcalls_handled, 128u);

  // Normal service resumes.
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(10, 0, 0, 0));
  p.key.set_nw_dst(Ipv4(9, 1, 1, 2));
  p.key.set_tp_src(1024);
  p.key.set_tp_dst(80);
  EXPECT_NE(sw.inject(p, 1), Datapath::Path::kMiss);
}

TEST(ConvergenceTest, CacheConvergesAfterContinuousTableChurn) {
  // While the controller rewrites the table every "second", cached flows
  // may lag; once churn stops, a single maintenance round must converge
  // every cached flow to the pipeline's current answer.
  Switch sw;
  sw.add_port(1);
  for (uint32_t p = 2; p <= 9; ++p) sw.add_port(p);
  VirtualClock clock;
  Rng rng(88);

  std::vector<Packet> probes;
  for (uint8_t i = 0; i < 16; ++i) {
    Packet p;
    p.key.set_in_port(1);
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_proto(ipproto::kUdp);
    p.key.set_nw_dst(Ipv4(10, 0, 0, i));
    p.key.set_tp_dst(5000);
    probes.push_back(p);
  }

  for (int round = 0; round < 20; ++round) {
    // Controller rewrites the routing policy.
    for (uint8_t i = 0; i < 16; ++i) {
      sw.table(0).add_flow(
          MatchBuilder().ip().nw_dst(Ipv4(10, 0, 0, i)), 10,
          OfActions().output(2 + static_cast<uint32_t>(rng.uniform(8))));
    }
    // Traffic trickles during the churn.
    for (const Packet& p : probes) {
      sw.inject(p, clock.now());
      sw.handle_upcalls(clock.now());
    }
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
  }

  // Churn stopped. Every cached answer must equal a fresh translation.
  for (const Packet& p : probes) {
    auto want =
        sw.pipeline().translate(p.key, clock.now(), /*side_effects=*/false);
    auto rx = sw.backend().receive(p, clock.now());
    ASSERT_NE(rx.actions, nullptr) << p.key.to_string();
    EXPECT_EQ(*rx.actions, want.actions) << p.key.to_string();
  }
}

TEST(FlowLimitTest, StormBoundedByDynamicLimit) {
  SwitchConfig cfg;
  cfg.flow_limit = 256;
  cfg.dynamic_flow_limit = false;
  // Exact-match microflows, one per connection: the worst case for the
  // flow table.
  cfg.megaflows_enabled = false;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 10, OfActions().output(2));
  VirtualClock clock;
  for (int second = 0; second < 5; ++second) {
    for (uint32_t i = 0; i < 2000; ++i) {
      Packet p;
      p.key.set_in_port(1);
      p.key.set_eth_type(ethertype::kIpv4);
      p.key.set_nw_proto(ipproto::kTcp);
      p.key.set_nw_src(Ipv4(10, 0, 0, 1));
      p.key.set_nw_dst(Ipv4(9, 1, 1, 2));
      p.key.set_tp_src(static_cast<uint16_t>(1024 + i + second * 2000));
      p.key.set_tp_dst(80);
      sw.inject(p, clock.now());
      if ((i & 63) == 0) sw.handle_upcalls(clock.now());
    }
    sw.handle_upcalls(clock.now());
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
    EXPECT_LE(sw.backend().flow_count(), 256u) << "second " << second;
  }
  // Either path may have bounded the table: the shortened overflow idle
  // timeout ("Above the maximum size, OVS drops this idle time to force
  // the table to shrink", §6) or hard LRU eviction.
  EXPECT_GT(sw.counters().reval_deleted_idle +
                sw.counters().evicted_flow_limit,
            0u);
}

TEST(ParserFuzzTest, RandomBytesNeverMisbehave) {
  Rng rng(4096);
  for (int i = 0; i < 20000; ++i) {
    RawFrame frame(rng.uniform(80));
    for (auto& b : frame) b = static_cast<uint8_t>(rng.next());
    auto key = parse_frame(frame, 1);  // must not crash or over-read
    if (key) {
      // Any parsed key must be re-parseable consistently.
      auto again = parse_frame(frame, 1);
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*key, *again);
    }
  }
}

TEST(ParserFuzzTest, MutatedValidFramesNeverMisbehave) {
  Rng rng(777);
  TcpParams tp;
  tp.ip_src = Ipv4(1, 2, 3, 4);
  tp.ip_dst = Ipv4(5, 6, 7, 8);
  tp.sport = 1234;
  tp.dport = 80;
  const RawFrame base = build_tcp_ipv4(tp);
  for (int i = 0; i < 20000; ++i) {
    RawFrame f = base;
    // Random byte mutations and truncation.
    for (int m = 0; m < 4; ++m)
      f[rng.uniform(f.size())] = static_cast<uint8_t>(rng.next());
    if (rng.chance(0.3)) f.resize(rng.uniform(f.size() + 1));
    (void)parse_frame(f, 1);
  }
}

TEST(AccountingTest, DatapathStatsConserve) {
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  install_paper_microbench_table(sw, 2);
  Rng rng(31);
  VirtualClock clock;
  for (int i = 0; i < 5000; ++i) {
    Packet p;
    p.key.set_in_port(1);
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_proto(rng.chance(0.8) ? ipproto::kTcp : ipproto::kUdp);
    p.key.set_nw_src(Ipv4(static_cast<uint32_t>(rng.next())));
    p.key.set_nw_dst(rng.chance(0.5) ? Ipv4(9, 1, 1, 2)
                                     : Ipv4(11, 1, 5, 5));
    p.key.set_tp_src(static_cast<uint16_t>(rng.range(1, 65535)));
    p.key.set_tp_dst(static_cast<uint16_t>(rng.range(1, 1024)));
    sw.inject(p, clock.now());
    if (rng.chance(0.2)) sw.handle_upcalls(clock.now());
    clock.advance(kMillisecond);
  }
  sw.handle_upcalls(clock.now());

  const auto& s = sw.backend().stats();
  // Conservation: every packet took exactly one path.
  EXPECT_EQ(s.packets, s.microflow_hits + s.megaflow_hits + s.misses);
  // Every entry's packet count sums to at most the hits (entries can have
  // been evicted, so <=), and per-entry stats are internally consistent.
  uint64_t entry_pkts = 0;
  for (Datapath::FlowRef f : sw.backend().dump()) {
    const auto* e = static_cast<const MegaflowEntry*>(f);
    entry_pkts += e->packets();
    EXPECT_GE(e->bytes(), e->packets());  // >= 1 byte per packet
    EXPECT_GE(e->used_ns(), e->created_ns());
  }
  // Entries count cache hits plus the miss packets credited at setup.
  EXPECT_LE(entry_pkts, s.microflow_hits + s.megaflow_hits +
                            sw.counters().flow_setups +
                            sw.counters().setup_dups);
  // Misses either became handled upcalls, were dropped by the bounded
  // queue, or are still queued.
  EXPECT_EQ(s.misses, sw.counters().upcalls_handled + s.upcall_drops +
                          sw.upcall_queue_depth());
  // Every handled upcall installed a flow, raced a duplicate, or failed
  // (no faults here, so no failures).
  EXPECT_EQ(sw.counters().upcalls_handled,
            sw.counters().flow_setups + sw.counters().setup_dups);
  EXPECT_EQ(sw.counters().install_fails, 0u);
  // The fair queue's own ledger balances.
  EXPECT_EQ(sw.upcall_queue().total_enqueued(),
            sw.counters().upcalls_handled + sw.upcall_queue_depth());
}

TEST(Ipv6EndToEndTest, PipelineRoutesAndTracksPrefixes) {
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  sw.add_port(3);
  // An IPv6 routing table with different prefix lengths.
  sw.table(0).add_flow(
      MatchBuilder().eth_type_ipv6().ipv6_dst_prefix(
          Ipv6(0x2001'0db8'0000'0000ULL, 0), 32),
      10, OfActions().output(2));
  sw.table(0).add_flow(
      MatchBuilder().eth_type_ipv6().ipv6_dst(
          Ipv6(0x2001'0db8'0000'0000ULL, 0x1)),
      20, OfActions().output(3));

  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv6);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_ipv6_src(Ipv6(0x2001'0db8'1111'0000ULL, 5));
  p.key.set_ipv6_dst(Ipv6(0x2001'0db8'2222'0000ULL, 9));
  p.key.set_tp_dst(443);

  sw.inject(p, 0);
  sw.handle_upcalls(0);
  EXPECT_EQ(sw.port_stats(2).tx_packets, 1u);

  // Prefix tracking must keep the megaflow from matching the host /128:
  // the address diverges from the host route inside the third group.
  auto flows = sw.backend().dump();
  ASSERT_EQ(flows.size(), 1u);
  const FlowMask& mask = sw.backend().flow_match(flows[0]).mask;
  const int plen = mask.prefix_len(FieldId::kIpv6Dst);
  ASSERT_GE(plen, 32);
  EXPECT_LE(plen, 68) << mask.to_string();

  // The host route still wins for its exact address.
  Packet host = p;
  host.key.set_ipv6_dst(Ipv6(0x2001'0db8'0000'0000ULL, 0x1));
  sw.inject(host, 0);
  sw.handle_upcalls(0);
  EXPECT_EQ(sw.port_stats(3).tx_packets, 1u);
}

TEST(RevalidatorTest, XlateErrorFlowsBecomeDrops) {
  // A controller mistake creates a resubmit loop; cached flows for it must
  // fail safe (drop) rather than loop or crash.
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 10, OfActions().resubmit(0));
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_dst(Ipv4(1, 1, 1, 1));
  sw.inject(p, 0);
  sw.handle_upcalls(0);
  EXPECT_EQ(sw.counters().xlate_errors, 1u);
  EXPECT_EQ(sw.port_stats(2).tx_packets, 0u);
  // The installed flow is a drop; repeat traffic stays in the fast path.
  auto rx = sw.backend().receive(p, 1);
  ASSERT_NE(rx.actions, nullptr);
  EXPECT_TRUE(rx.actions->drops());
}

}  // namespace
}  // namespace ovs
