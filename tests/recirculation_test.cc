// Conntrack in the datapath (DESIGN.md §15): the ct action runs per packet
// on the datapath's shared tracker, and the packet recirculates into a
// second megaflow lookup keyed on recirc_id. Recirculation composes the
// stages' actions into one fate, hands a recirculated miss to the upcall
// handler with the fate so far, and drops a packet that would recirculate
// past kMaxRecircDepth. SharedConntrack runs four worker threads through
// the one tracker while the control thread revalidates.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "datapath/datapath.h"
#include "ofproto/pipeline.h"
#include "test_util.h"
#include "vswitchd/revalidator.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

constexpr uint16_t kSyn = 0x002, kAck = 0x010, kPshAck = 0x018,
                   kFinAck = 0x011, kSynAck = kSyn | kAck;

Packet tcp_pkt(uint32_t in_port, Ipv4 src, Ipv4 dst, uint16_t sport,
               uint16_t dport, uint16_t flags = kAck) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(src);
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.key.set_tcp_flags(flags);
  p.size_bytes = 100;
  return p;
}

// Installs the flow translation gives `key` (with side effects, so its
// frozen state is named) and returns its actions.
DpActions install(Datapath& dp, Pipeline& pl, const FlowKey& key) {
  XlateResult xr = pl.translate(key, 1);
  EXPECT_NE(dp.install(xr.megaflow, xr.actions, 1, &key), nullptr);
  return xr.actions;
}

// The key the datapath recirculates after `stage`'s ct, per the tracker's
// current preview.
FlowKey recirculated(const Datapath& dp, FlowKey key, const DpActions& stage) {
  stage.apply_set_fields(key);
  DpActions ignored;
  apply_ct_verdict(dp.conntrack().preview(key, stage.ct()), key, ignored);
  key.set_recirc_id(stage.recirc_id());
  return key;
}

// A pre-ct stage that rewrites and SNATs, and a post-ct stage that
// outputs: the packet's fate is both, with the NAT rewrite between them.
TEST(Recirculation, ComposesStagesAndNat) {
  Datapath dp;
  testutil::UpcallCollector upcalls(dp);
  Pipeline pl(2);
  pl.set_conntrack(&dp.conntrack());
  pl.add_port(1);
  pl.add_port(2);
  pl.table(0).add_flow(
      MatchBuilder().tcp(), 10,
      OfActions().set_reg(1, 2).ct_nat(1, true, OfCt::Nat::kSrc,
                                       Ipv4(192, 0, 2, 9).value(), 5000));
  pl.table(1).add_flow(MatchBuilder().reg(1, 2), 10, OfActions().output(2));

  const Packet p = tcp_pkt(1, Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 4000, 80,
                           kSyn);
  const DpActions first = install(dp, pl, p.key);
  ASSERT_TRUE(first.recirculates());
  install(dp, pl, recirculated(dp, p.key, first));
  ASSERT_EQ(dp.flow_count(), 2u);

  const Datapath::RxResult rx = dp.receive(p, 2);
  ASSERT_NE(rx.actions, nullptr);
  EXPECT_EQ(rx.actions->to_string(),
            "set(reg1=2),set(nw_src=3221225993),set(tp_src=5000),output:2");
  EXPECT_EQ(*rx.actions, pl.evaluate(p.key, 2).actions)
      << "evaluate() composes as the datapath does";
  EXPECT_EQ(dp.conntrack().size(), 2u);  // the connection and its NAT pair
  const Datapath::Stats s = dp.stats();
  EXPECT_EQ(s.recirculations, 1u);
  EXPECT_EQ(s.recirc_misses, 0u);
  EXPECT_EQ(upcalls.pkts.size(), 0u);
}

// A recirculated lookup that misses reaches the handler with the key it
// recirculated and the fate so far; the burst's result is a miss.
TEST(Recirculation, PostCtMissBecomesRecircUpcall) {
  Datapath dp({}, 2);
  testutil::UpcallCollector upcalls(dp);
  Pipeline pl(2);
  pl.set_conntrack(&dp.conntrack());
  pl.table(0).add_flow(MatchBuilder().tcp(), 10,
                       OfActions().set_reg(1, 7).ct(1, true));
  pl.table(1).add_flow(Match{}, 1, OfActions().output(2));
  const Packet p = tcp_pkt(1, Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 4000, 80,
                           kSyn);
  const DpActions first = install(dp, pl, p.key);

  std::vector<Packet> burst = {p};
  std::vector<Datapath::RxResult> rx(1);
  dp.process_batch(burst, 1, rx.data());
  EXPECT_EQ(rx[0].path, Datapath::Path::kMiss);
  EXPECT_EQ(rx[0].actions, nullptr);
  EXPECT_EQ(upcalls.pkts.size(), 0u);  // not a first-lookup miss

  std::vector<RecircUpcall> pending;
  dp.take_recirc_upcalls(&pending);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].depth, 1u);
  EXPECT_EQ(pending[0].fate.to_string(), "set(reg1=7)");
  EXPECT_EQ(pending[0].key.recirc_id(), first.recirc_id());
  EXPECT_EQ(pending[0].key.ct_state(), ct_state::kNew);
  EXPECT_EQ(pending[0].key.reg(1), 7u);
  EXPECT_EQ(dp.stats().recirc_misses, 1u);
  EXPECT_EQ(dp.conntrack().size(), 1u);  // the ct ran before the miss
}

// Through the switch, a packet that misses both stages is served inside
// one handle_upcalls call: two upcalls, two flows, one trace with the
// composed fate, nothing left pending.
TEST(Recirculation, UpcallFinishesItsRecirculationInTheSameCall) {
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  ASSERT_EQ("", sw.add_flow("priority=10, tcp, actions=ct(commit,table=1)"));
  ASSERT_EQ("", sw.add_flow("table=1, priority=10, ct_state=1, "
                            "actions=set_field:3->reg2, output:2"));
  std::vector<std::string> traces;
  sw.set_trace_hook([&](const Packet&, const DpActions& a, Datapath::Path) {
    traces.push_back(a.to_string());
  });
  const std::vector<Packet> burst = {
      tcp_pkt(1, Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 4000, 80, kSyn)};
  EXPECT_EQ(sw.inject_batch(burst, 1), 1u);
  EXPECT_EQ(sw.handle_upcalls(1), 2u);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0], "set(reg2=3),output:2");
  EXPECT_EQ(sw.backend().flow_count(), 2u);
  EXPECT_EQ(sw.counters().flow_setups, 2u);
  EXPECT_EQ(sw.upcall_queue_depth(), 0u);
  std::vector<RecircUpcall> pending;
  sw.backend().take_recirc_upcalls(&pending);
  EXPECT_TRUE(pending.empty());
  // Every megaflow matches recirc_id exactly, each stage its own.
  for (Datapath::FlowRef f : sw.backend().dump())
    EXPECT_TRUE(sw.backend().flow_match(f).mask.is_exact(FieldId::kRecircId));
  // The next packet of the connection hits both stages.
  traces.clear();
  sw.inject_batch(std::vector<Packet>{tcp_pkt(1, Ipv4(10, 0, 0, 1),
                                              Ipv4(10, 0, 0, 2), 4000, 80)},
                  2);
  EXPECT_TRUE(traces.empty());  // established: table 1 has no route
  EXPECT_EQ(sw.handle_upcalls(2), 1u);
  EXPECT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0], "drop");
}

// A pipeline that runs ct forever recirculates kMaxRecircDepth times and
// is then dropped where it stands, counted; evaluate() composes the same.
TEST(Recirculation, DepthCapDropsAndCounts) {
  Switch sw;
  sw.add_port(1);
  sw.add_port(2);
  ASSERT_EQ("", sw.add_flow("priority=10, tcp, actions=ct(table=0)"));
  std::vector<std::string> traces;
  sw.set_trace_hook([&](const Packet&, const DpActions& a, Datapath::Path) {
    traces.push_back(a.to_string());
  });
  const Packet p = tcp_pkt(1, Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 4000, 80);
  sw.inject(p, 1);
  sw.handle_upcalls(1);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0], "drop");
  EXPECT_EQ(sw.backend().stats().recirc_depth_drops, 1u);
  EXPECT_EQ(sw.backend().stats().recirculations, kMaxRecircDepth);
  EXPECT_EQ(sw.pipeline().evaluate(p.key, 1).actions.to_string(), "drop");
  // Cached now: the next packet runs the same loop in the fast path.
  sw.inject(p, 2);
  EXPECT_EQ(traces.size(), 2u);
  EXPECT_EQ(sw.backend().stats().recirc_depth_drops, 2u);
}

// The unsound ablation: recirculation without ct_state sends the post-ct
// stage down its stateless route.
TEST(Recirculation, AblationDropsCtState) {
  for (bool keep : {true, false}) {
    SwitchConfig cfg;
    cfg.datapath.ct_state_on_recirc = keep;
    Switch sw(cfg);
    sw.add_port(1);
    sw.add_port(2);
    sw.add_port(3);
    ASSERT_EQ("", sw.add_flow("priority=10, tcp, actions=ct(table=1)"));
    ASSERT_EQ("", sw.add_flow("table=1, priority=10, ct_state=1, "
                              "actions=output:2"));
    ASSERT_EQ("", sw.add_flow("table=1, priority=1, actions=output:3"));
    std::string got;
    sw.set_trace_hook([&](const Packet&, const DpActions& a, Datapath::Path) {
      got = a.to_string();
    });
    sw.inject(tcp_pkt(1, Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 4000, 80), 1);
    sw.handle_upcalls(1);
    EXPECT_EQ(got, keep ? "output:2" : "output:3");
  }
}

// The NIC runs no ct: a recirculating flow never takes an offload slot,
// and an offloaded flow whose actions turn into a ct loses its slot, so
// its packets recirculate instead of leaving with the ct unrun.
TEST(Recirculation, OffloadNeverHoldsARecirculatingFlow) {
  DatapathConfig cfg;
  cfg.offload_slots = 4;
  Datapath dp(cfg);
  testutil::UpcallCollector upcalls(dp);
  const Packet p = tcp_pkt(1, Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 4000, 80);
  Match first = MatchBuilder().in_port(1);
  first.mask.set_exact(FieldId::kRecircId);  // as every megaflow does
  Datapath::FlowRef f = dp.install(first, DpActions().output(2), 1);
  ASSERT_TRUE(dp.offload_install(f, 1));
  ASSERT_EQ(dp.receive(p, 1).path, Datapath::Path::kOffloadHit);

  DpActions stateful;
  stateful.list.push_back(CtAction{0, true, CtAction::Nat::kNone, 0, 0, 7});
  dp.update_actions(f, stateful);
  EXPECT_FALSE(dp.offload_contains(f));
  EXPECT_FALSE(dp.offload_install(f, 2));
  const Datapath::RxResult rx = dp.receive(p, 2);
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);  // the post-ct stage is absent
  EXPECT_EQ(dp.stats().recirculations, 1u);
  EXPECT_EQ(dp.stats().recirc_misses, 1u);
}

// Four workers stream CRR transactions on disjoint connections through the
// datapath's one tracker while the control thread revalidates: every
// packet gets its composed fate, every connection opens and closes, and
// the tracker ends empty.
TEST(SharedConntrack, WorkersStreamCrrWhileControlRevalidates) {
  Datapath dp({}, 4);
  testutil::UpcallCollector upcalls(dp);
  Pipeline pl(2);
  pl.set_conntrack(&dp.conntrack());
  for (uint32_t p : {1u, 2u}) pl.add_port(p);
  pl.table(0).add_flow(MatchBuilder().tcp(), 10, OfActions().ct(1, true));
  pl.table(1).add_flow(MatchBuilder().in_port(1), 10, OfActions().output(2));
  pl.table(1).add_flow(MatchBuilder().in_port(2), 10, OfActions().output(1));

  const Ipv4 client(10, 0, 0, 1), server(10, 0, 0, 2);
  auto c2s = [&](uint16_t eph, uint16_t flags) {
    return tcp_pkt(1, client, server, eph, 80, flags);
  };
  auto s2c = [&](uint16_t eph, uint16_t flags) {
    return tcp_pkt(2, server, client, 80, eph, flags);
  };
  // Both directions' stages, set up through the real translation path.
  for (const Packet& p : {c2s(1, kSyn), s2c(1, kSynAck)})
    install(dp, pl, recirculated(dp, p.key, install(dp, pl, p.key)));
  ASSERT_EQ(dp.flow_count(), 4u);

  constexpr size_t kTxnsPerWorker = 2000;
  std::atomic<size_t> done{0};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < dp.n_workers(); ++w) {
    workers.emplace_back([&, w] {
      std::vector<Datapath::RxResult> rx(1);
      for (size_t t = 0; t < kTxnsPerWorker; ++t) {
        const auto eph = static_cast<uint16_t>(1024 + w * kTxnsPerWorker + t);
        const Packet txn[8] = {c2s(eph, kSyn),    s2c(eph, kSynAck),
                               c2s(eph, kAck),    c2s(eph, kPshAck),
                               s2c(eph, kPshAck), c2s(eph, kFinAck),
                               s2c(eph, kFinAck), c2s(eph, kAck)};
        for (const Packet& p : txn) {
          dp.process_batch(w, std::span<const Packet>(&p, 1), 1, rx.data());
          const std::string want = p.key.in_port() == 1 ? "output:2"
                                                        : "output:1";
          if (rx[0].actions == nullptr || rx[0].actions->to_string() != want)
            wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
      done.fetch_add(1);
    });
  }

  Revalidator::Config rc;
  rc.n_threads = 2;
  rc.maybe_stale = true;
  rc.idle_ns = ~uint64_t{0} / 2;
  RevalPlan plan;
  size_t passes = 0;
  while (done.load() < dp.n_workers() || passes < 4) {
    const std::vector<Datapath::FlowRef> flows = dp.dump();
    Revalidator::plan(dp, pl, flows, 2, rc, &plan);
    for (size_t i = 0; i < flows.size(); ++i)
      EXPECT_EQ(plan.decisions[i].kind, RevalDecision::Kind::kKeepFresh);
    dp.conntrack().expire_idle(1);  // nothing idles: a no-op under traffic
    dp.purge_dead();
    ++passes;
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(dp.conntrack().size(), 0u);
  const ConnTracker::Stats cs = dp.conntrack().stats();
  EXPECT_EQ(cs.committed, dp.n_workers() * kTxnsPerWorker);
  EXPECT_EQ(cs.removed, dp.n_workers() * kTxnsPerWorker);
  const Datapath::Stats s = dp.stats();
  EXPECT_EQ(s.recirculations, 8 * dp.n_workers() * kTxnsPerWorker);
  EXPECT_EQ(s.recirc_misses, 0u);
  EXPECT_EQ(upcalls.pkts.size(), 0u);
}

}  // namespace
}  // namespace ovs
