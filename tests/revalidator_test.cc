// Multi-threaded revalidator tests (§4.3, §6): two-tier tag fast path
// semantics, MAC-move repair through the plan/apply split, thread-count
// determinism, and a TSan-targeted churn stress against concurrent
// datapath workers (RevalidatorStress.*, run under -DVSWITCH_TSAN in CI).
#include "vswitchd/revalidator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datapath/datapath.h"
#include "ofproto/mac_learning.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

constexpr uint64_t kMs = 1'000'000ULL;

Packet eth_pkt(EthAddr src, EthAddr dst, uint32_t in_port) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(src);
  p.key.set_eth_dst(dst);
  p.size_bytes = 100;
  return p;
}

// MACs whose Bloom tags occupy distinct bits of the 64-bit tag space, so
// "flows touched by this MAC" is exact instead of probabilistic.
std::vector<EthAddr> distinct_tag_macs(size_t n) {
  std::vector<EthAddr> macs;
  uint64_t used = 0;
  for (uint64_t v = 0x020000000001ULL; macs.size() < n; ++v) {
    const EthAddr mac(v);
    const uint64_t t = MacLearning::tag(mac, 0);
    if ((used & t) != 0) continue;
    used |= t;
    macs.push_back(mac);
  }
  return macs;
}

// A NORMAL L2 switch with `n_clients` clients on ports 100.. and one server
// on port 1; every client has two megaflows (client->server, server->client).
class TwoTierTest : public ::testing::Test {
 protected:
  void setup(size_t n_clients, RevalidationMode mode) {
    SwitchConfig cfg;
    cfg.datapath_workers = 4;
    cfg.reval_mode = mode;
    cfg.degradation.enabled = false;
    cfg.dynamic_flow_limit = false;
    cfg.idle_timeout_ns = ~uint64_t{0} / 2;
    sw_ = std::make_unique<Switch>(cfg);
    macs_ = distinct_tag_macs(n_clients + 1);
    sw_->add_port(1);
    sw_->add_port(2);  // migration target
    for (size_t i = 0; i < n_clients; ++i)
      sw_->add_port(static_cast<uint32_t>(100 + i));
    sw_->table(0).add_flow(MatchBuilder(), 1, OfActions().normal());
    sw_->pipeline().mac_learning().learn(server(), 0, 1, now_);
    for (size_t i = 0; i < n_clients; ++i) {
      sw_->inject(eth_pkt(client(i), server(), client_port(i)), now_);
      sw_->handle_upcalls(now_);
      sw_->inject(eth_pkt(server(), client(i), 1), now_);
      sw_->handle_upcalls(now_);
    }
    // Settle: consume the setup's MAC-learning generation bump.
    tick();
    ASSERT_EQ(sw_->backend().flow_count(), 2 * n_clients);
  }

  EthAddr server() const { return macs_[0]; }
  EthAddr client(size_t i) const { return macs_[i + 1]; }
  static uint32_t client_port(size_t i) {
    return static_cast<uint32_t>(100 + i);
  }
  void tick() {
    now_ += kMs;
    sw_->run_maintenance(now_);
  }
  uint64_t table_rule_packets() {
    uint64_t total = 0;
    sw_->table(0).for_each([&](const OfRule* r) { total += r->packets(); });
    return total;
  }

  std::unique_ptr<Switch> sw_;
  std::vector<EthAddr> macs_;
  uint64_t now_ = kMs;
};

TEST_F(TwoTierTest, TagsSkipUntouchedFlows) {
  setup(8, RevalidationMode::kTwoTier);
  // Move one client MAC: exactly its two flows carry the changed tag.
  sw_->pipeline().mac_learning().learn(client(0), 0, 2, now_);
  tick();
  const RevalPassStats& ps = sw_->last_reval_pass();
  EXPECT_EQ(ps.examined, 16u);
  EXPECT_EQ(ps.retranslated, 2u);
  EXPECT_EQ(ps.skipped_by_tags, 14u);
  EXPECT_EQ(sw_->counters().reval_skipped_by_tags, 14u);
}

TEST_F(TwoTierTest, FullModeRetranslatesEverything) {
  setup(8, RevalidationMode::kFull);
  sw_->pipeline().mac_learning().learn(client(0), 0, 2, now_);
  tick();
  const RevalPassStats& ps = sw_->last_reval_pass();
  EXPECT_EQ(ps.examined, 16u);
  EXPECT_EQ(ps.retranslated, 16u);
  EXPECT_EQ(ps.skipped_by_tags, 0u);
}

TEST_F(TwoTierTest, SkippedFlowsStillPushStatistics) {
  setup(4, RevalidationMode::kTwoTier);
  // Traffic on client 3's flow, then dirty client 0 only: client 3's flow
  // is tag-skipped in the next pass but its statistics must still reach
  // the OpenFlow rule (two-tier attribution survives MAC-only churn).
  const uint64_t rule_pkts_before = table_rule_packets();
  for (int i = 0; i < 5; ++i)
    sw_->inject(eth_pkt(client(3), server(), client_port(3)), now_);
  sw_->pipeline().mac_learning().learn(client(0), 0, 2, now_);
  tick();
  EXPECT_GT(sw_->last_reval_pass().skipped_by_tags, 0u);
  EXPECT_GE(table_rule_packets(), rule_pkts_before + 5);
}

TEST_F(TwoTierTest, MacMoveRepairsReverseFlow) {
  setup(4, RevalidationMode::kTwoTier);
  // Client 1 migrates from port 101 to port 2; the server->client megaflow
  // must be repaired in place (same shape, new output port).
  sw_->pipeline().mac_learning().learn(client(1), 0, 2, now_);
  const uint64_t updated_before = sw_->counters().reval_updated_actions;
  tick();
  EXPECT_GE(sw_->counters().reval_updated_actions, updated_before + 1);
  // Post-repair traffic to the moved client exits the new port via the
  // repaired cache entry (no upcall).
  const uint64_t port2_before = sw_->port_stats(2).tx_packets;
  const uint64_t setups_before = sw_->counters().flow_setups;
  sw_->inject(eth_pkt(server(), client(1), 1), now_);
  EXPECT_EQ(sw_->port_stats(2).tx_packets, port2_before + 1);
  EXPECT_EQ(sw_->counters().flow_setups, setups_before);
}

TEST_F(TwoTierTest, ForcedFullPassBypassesTags) {
  setup(4, RevalidationMode::kTwoTier);
  // Corrupt an entry via the fault path equivalent: directly scramble and
  // force a full pass. Tags must not shield the corrupted entry.
  sw_->backend().corrupt_entry(0);
  sw_->force_full_revalidation();
  tick();
  const RevalPassStats& ps = sw_->last_reval_pass();
  EXPECT_EQ(ps.skipped_by_tags, 0u);
  EXPECT_EQ(ps.retranslated, ps.examined);
  // The corrupted entry was repaired or evicted; traffic flows normally.
  EXPECT_GT(sw_->counters().reval_updated_actions +
                sw_->counters().reval_deleted_stale,
            0u);
}

// Thread-count determinism: the serial apply phase makes the pass outcome
// (flow set, counters, statistics) independent of how many plan threads ran.
TEST(RevalidatorDeterminism, OutcomeIndependentOfThreadCount) {
  auto run = [](size_t threads) {
    SwitchConfig cfg;
    cfg.datapath_workers = 2;
    cfg.revalidator_threads = threads;
    Switch sw(cfg);
    for (uint32_t p = 1; p <= 4; ++p) sw.add_port(p);
    for (uint32_t i = 0; i < 4; ++i)
      sw.table(0).add_flow(
          MatchBuilder().ip().nw_dst_prefix(
              Ipv4(static_cast<uint8_t>(10 + i), 0, 0, 0), 8),
          10, OfActions().output(i + 1));
    uint64_t now = kMs;
    for (uint32_t i = 0; i < 600; ++i) {
      Packet p;
      p.key.set_in_port(1 + i % 4);
      p.key.set_eth_type(ethertype::kIpv4);
      p.key.set_nw_proto(ipproto::kTcp);
      p.key.set_nw_src(Ipv4(1, 1, 1, 1));
      p.key.set_nw_dst(Ipv4(static_cast<uint8_t>(10 + i % 4),
                            static_cast<uint8_t>(i / 4), 0, 1));
      p.key.set_tp_src(static_cast<uint16_t>(1024 + i));
      p.key.set_tp_dst(80);
      p.size_bytes = 100;
      sw.inject(p, now);
      if ((i & 31) == 31) sw.handle_upcalls(now);
      now += 100'000;
    }
    sw.handle_upcalls(now);
    sw.run_maintenance(now);
    // Reroute one /8 and revalidate: repairs are applied serially.
    sw.table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(11, 0, 0, 0), 8), 20,
        OfActions().output(4));
    now += kMs;
    sw.run_maintenance(now);

    std::multiset<std::string> flows;
    Datapath& be = sw.backend();
    for (Datapath::FlowRef f : be.dump())
      flows.insert(be.flow_match(f).to_string() + " -> " +
                   be.flow_actions(f).to_string());
    return std::tuple(flows, sw.counters().reval_updated_actions,
                      sw.counters().reval_deleted_stale,
                      sw.counters().reval_flows_examined,
                      be.flow_count());
  };
  const auto base = run(1);
  EXPECT_EQ(base, run(2));
  EXPECT_EQ(base, run(4));
  EXPECT_EQ(base, run(8));
}

// Deadline accounting uses the plan makespan, not the summed work: more
// threads means a shorter modeled pass over the same flows.
TEST(RevalidatorDeterminism, MakespanShrinksWithThreads) {
  auto pass_stats = [](size_t threads) {
    SwitchConfig cfg;
    cfg.revalidator_threads = threads;
    cfg.dynamic_flow_limit = false;
    Switch sw(cfg);
    sw.add_port(1);
    sw.add_port(2);
    for (uint32_t i = 0; i < 200; ++i)
      sw.table(0).add_flow(
          MatchBuilder().ip().nw_dst(Ipv4(10, 0, static_cast<uint8_t>(i >> 8),
                                          static_cast<uint8_t>(i))),
          10, OfActions().output(2));
    uint64_t now = kMs;
    for (uint32_t i = 0; i < 200; ++i) {
      Packet p;
      p.key.set_in_port(1);
      p.key.set_eth_type(ethertype::kIpv4);
      p.key.set_nw_proto(ipproto::kTcp);
      p.key.set_nw_src(Ipv4(1, 1, 1, 1));
      p.key.set_nw_dst(Ipv4(10, 0, static_cast<uint8_t>(i >> 8),
                            static_cast<uint8_t>(i)));
      p.key.set_tp_src(1234);
      p.key.set_tp_dst(80);
      sw.inject(p, now);
      if ((i & 31) == 31) sw.handle_upcalls(now);
    }
    sw.handle_upcalls(now);
    // Force a full re-translation pass.
    sw.table(1).add_flow(MatchBuilder().ip().nw_src(Ipv4(192, 0, 2, 9)), 5,
                         OfActions::drop());
    sw.run_maintenance(now + kMs);
    return sw.last_reval_pass();
  };
  const RevalPassStats s1 = pass_stats(1);
  const RevalPassStats s4 = pass_stats(4);
  EXPECT_EQ(s1.examined, s4.examined);
  EXPECT_EQ(s1.retranslated, s4.retranslated);
  EXPECT_EQ(s1.threads_used, 1u);
  EXPECT_EQ(s4.threads_used, 4u);
  // Same total work, ~quarter the modeled latency.
  EXPECT_DOUBLE_EQ(s1.total_cycles, s4.total_cycles);
  EXPECT_LT(s4.makespan_cycles, s1.makespan_cycles / 2);
}

// TSan churn stress: datapath workers stream packets while the control
// thread runs multi-threaded plan passes and applies repairs (action
// updates, removes, reinstalls). No assertion beyond internal consistency —
// the point is the data-race-free execution under -DVSWITCH_TSAN.
TEST(RevalidatorStress, PlanUnderConcurrentTraffic) {
  Datapath dp({}, 4);
  Datapath* be = &dp;

  Pipeline pl(/*n_tables=*/4, {});
  pl.add_port(1);
  pl.add_port(2);
  constexpr size_t kFlows = 64;
  for (size_t i = 0; i < kFlows; ++i)
    pl.table(0).add_flow(
        MatchBuilder().ip().nw_dst(Ipv4(10, 0, 0, static_cast<uint8_t>(i))),
        10, OfActions().output(2));

  auto flow_pkt = [](size_t i) {
    Packet p;
    p.key.set_in_port(1);
    p.key.set_eth_type(ethertype::kIpv4);
    p.key.set_nw_proto(ipproto::kTcp);
    p.key.set_nw_src(Ipv4(1, 1, 1, 1));
    p.key.set_nw_dst(Ipv4(10, 0, 0, static_cast<uint8_t>(i)));
    p.key.set_tp_src(static_cast<uint16_t>(1000 + i));
    p.key.set_tp_dst(80);
    p.size_bytes = 100;
    return p;
  };

  // Install every flow through the real translation path.
  for (size_t i = 0; i < kFlows; ++i) {
    XlateResult xr = pl.translate(flow_pkt(i).key, kMs);
    ASSERT_NE(be->install(xr.megaflow, xr.actions, kMs), nullptr);
  }
  ASSERT_EQ(be->flow_count(), kFlows);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < dp.n_workers(); ++w) {
    workers.emplace_back([&, w] {
      std::vector<Packet> burst(16);
      std::vector<Datapath::RxResult> res(burst.size());
      for (uint64_t n = w; !stop.load(std::memory_order_relaxed);
           n += dp.n_workers()) {
        for (size_t j = 0; j < burst.size(); ++j)
          burst[j] = flow_pkt((n + j) % kFlows);
        // Fixed timestamp: used_ns must never exceed the plan's now_ns, or
        // the unsigned idle-age check would see a wrapped (huge) age.
        dp.process_batch(w, burst, kMs, res.data());
      }
    });
  }

  Revalidator::Config rc;
  rc.n_threads = 4;
  rc.maybe_stale = true;
  rc.idle_ns = ~uint64_t{0} / 2;
  rc.reval_per_flow = 1;
  rc.per_table_lookup = 1;
  RevalPlan plan;
  for (int pass = 0; pass < 25; ++pass) {
    if ((pass & 3) == 0) {
      // Mutate the pipeline between passes (never during plan): reroute a
      // rotating flow so some decisions become kUpdateActions.
      pl.table(0).add_flow(
          MatchBuilder().ip().nw_dst(
              Ipv4(10, 0, 0, static_cast<uint8_t>(pass % kFlows))),
          static_cast<int32_t>(20 + pass), OfActions().output(1));
    }
    const std::vector<Datapath::FlowRef> flows = be->dump();
    const RevalPassStats ps =
        Revalidator::plan(*be, pl, flows, kMs + 1, rc, &plan);
    EXPECT_EQ(ps.examined, flows.size());
    for (size_t i = 0; i < flows.size(); ++i) {
      const RevalDecision& d = plan.decisions[i];
      if (d.kind == RevalDecision::Kind::kUpdateActions) {
        be->update_actions(flows[i], std::move(plan.update(d).actions));
      } else if (d.kind == RevalDecision::Kind::kDeleteStale) {
        be->remove(flows[i]);
      }
    }
    be->purge_dead();
    // Keep the table populated: reinstall anything that was deleted.
    if (be->flow_count() < kFlows) {
      for (size_t i = 0; i < kFlows; ++i) {
        XlateResult xr = pl.translate(flow_pkt(i).key, kMs);
        be->install(xr.megaflow, xr.actions, kMs);
      }
    }
  }
  stop.store(true);
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(be->flow_count(), kFlows);
  const Datapath::Stats s = be->stats();
  EXPECT_EQ(s.packets, s.microflow_hits + s.megaflow_hits + s.misses);
}

}  // namespace
}  // namespace ovs
