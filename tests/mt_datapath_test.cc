// Tests for the datapath's worker shards (PMD-style, §4.1): per-worker
// single-writer copies of the megaflow cache, each with its own EMC, kept
// in lockstep by the control path, and concurrent workers against a
// churning control thread.
#include "datapath/datapath.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "packet/match.h"
#include "test_util.h"
#include "util/rng.h"

namespace ovs {
namespace {

using Path = Datapath::Path;

Packet tcp_pkt(Ipv4 dst, uint16_t sport, uint16_t dport) {
  Packet p;
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(1, 1, 1, 1));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 100;
  return p;
}

std::vector<Datapath::RxResult> run_batch(Datapath& dp, size_t worker,
                                          const std::vector<Packet>& b,
                                          uint64_t now) {
  std::vector<Datapath::RxResult> res(b.size());
  dp.process_batch(worker, b, now, res.data());
  return res;
}

TEST(MtDatapathTest, MissQueuesUpcall) {
  Datapath dp({}, 4);
  testutil::UpcallCollector up(dp);
  auto res = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 9, 9, 9), 1, 2)}, 0);
  EXPECT_EQ(res[0].path, Path::kMiss);
  EXPECT_EQ(res[0].actions, nullptr);
  ASSERT_EQ(up.pkts.size(), 1u);
  EXPECT_EQ(up.pkts[0].key.nw_dst(), Ipv4(9, 9, 9, 9));
  EXPECT_EQ(dp.stats().misses, 1u);
  EXPECT_EQ(dp.stats().upcall_drops, 0u);
}

TEST(MtDatapathTest, MegaflowThenHintHit) {
  Datapath dp({}, 4);
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  Datapath::FlowRef e = dp.install(m, DpActions().output(2), 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(dp.flow_count(), 1u);
  EXPECT_EQ(dp.mask_count(), 1u);

  auto r1 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 10);
  EXPECT_EQ(r1[0].path, Path::kMegaflowHit);
  ASSERT_NE(r1[0].actions, nullptr);
  EXPECT_EQ(r1[0].actions->to_string(), "output:2");

  // Same microflow again: worker 0's EMC hints at its own replica.
  auto r2 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 20);
  EXPECT_EQ(r2[0].path, Path::kMicroflowHit);

  EXPECT_EQ(dp.stats().microflow_hits, 1u);
  EXPECT_EQ(dp.stats().megaflow_hits, 1u);
  EXPECT_EQ(dp.flow_packets(e), 2u);
  EXPECT_EQ(dp.flow_bytes(e), 200u);
  EXPECT_EQ(dp.flow_used_ns(e), 20u);

  // Another worker's traffic lands on its own replica; the flow's counters
  // sum the replicas and its last-used time is the latest of them.
  run_batch(dp, 3, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 15);
  EXPECT_EQ(dp.flow_packets(e), 3u);
  EXPECT_EQ(dp.flow_bytes(e), 300u);
  EXPECT_EQ(dp.flow_used_ns(e), 20u);
  EXPECT_EQ(e->packets(), 2u);
}

TEST(MtDatapathTest, DuplicateInstallReturnsExisting) {
  Datapath dp({}, 4);
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  Datapath::FlowRef a = dp.install(m, DpActions().output(2), 0);
  Datapath::FlowRef b = dp.install(m, DpActions().output(3), 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dp.flow_count(), 1u);
}

TEST(MtDatapathTest, BurstDedupGroupsStats) {
  Datapath dp({}, 4);
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  Datapath::FlowRef e = dp.install(m, DpActions().output(2), 0);

  // 32 copies of one microflow: the leader does the single classifier
  // search, every follower is a microflow hit, stats bump once.
  std::vector<Packet> burst(32, tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6));
  std::vector<Datapath::RxResult> res(burst.size());
  Datapath::BatchSummary sum;
  dp.process_batch(0, burst, 50, res.data(), &sum);

  EXPECT_EQ(res[0].path, Path::kMegaflowHit);
  for (size_t i = 1; i < res.size(); ++i) {
    EXPECT_EQ(res[i].path, Path::kMicroflowHit);
    EXPECT_EQ(res[i].actions, res[0].actions);
  }
  EXPECT_EQ(sum.packets, 32u);
  EXPECT_EQ(sum.emc_probes, 1u);
  EXPECT_EQ(sum.megaflow_lookups, 1u);
  EXPECT_EQ(sum.groups, 1u);
  EXPECT_EQ(dp.flow_packets(e), 32u);
  EXPECT_EQ(dp.flow_bytes(e), 3200u);
}

TEST(MtDatapathTest, RemoveIsDeferredAndStaleHintCorrected) {
  Datapath dp({}, 4);
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  Datapath::FlowRef e = dp.install(m, DpActions().output(2), 0);

  run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 10);  // install hint
  dp.remove(e);
  EXPECT_EQ(dp.flow_count(), 0u);
  EXPECT_EQ(dp.mask_count(), 0u);

  // The hint now misdirects: corrected on first use, packet misses.
  auto r = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 20);
  EXPECT_EQ(r[0].path, Path::kMiss);
  EXPECT_EQ(dp.stats().stale_microflow_hits, 1u);

  dp.purge_dead();  // must not crash; entry freed after the grace period
  auto r2 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 30);
  EXPECT_EQ(r2[0].path, Path::kMiss);
}

TEST(MtDatapathTest, UpdateActionsSwapsRcuStyle) {
  Datapath dp({}, 4);
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  Datapath::FlowRef e = dp.install(m, DpActions().output(2), 0);

  auto r1 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 10);
  EXPECT_EQ(r1[0].actions->to_string(), "output:2");

  // The update reaches every worker's replica, EMC-hinted or not.
  dp.update_actions(e, DpActions().output(7));
  auto r2 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 20);
  EXPECT_EQ(r2[0].path, Path::kMicroflowHit);
  EXPECT_EQ(r2[0].actions->to_string(), "output:7");
  auto r3 = run_batch(dp, 2, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 20);
  EXPECT_EQ(r3[0].actions->to_string(), "output:7");
  EXPECT_EQ(dp.flow_actions(e).to_string(), "output:7");
}

TEST(MtDatapathTest, FlowCapHoldsAcrossShards) {
  DatapathConfig cfg;
  cfg.max_flows = 2;
  Datapath dp(cfg, 4);
  Datapath::FlowRef a =
      dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
                 DpActions().output(1), 0);
  ASSERT_NE(a, nullptr);
  EXPECT_NE(dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 16),
                       DpActions().output(2), 0),
            nullptr);
  // The third flow does not fit; a re-install of an existing one still
  // returns it. The refusal is counted once, not once per shard.
  EXPECT_EQ(dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(11, 0, 0, 0), 8),
                       DpActions().output(3), 0),
            nullptr);
  EXPECT_EQ(dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
                       DpActions().output(1), 0),
            a);
  EXPECT_EQ(dp.stats().install_fail_full, 1u);
  EXPECT_EQ(dp.flow_count(), 2u);
  EXPECT_EQ(dp.mask_count(), 2u);
  // Every worker resolves both flows, and nothing else.
  for (size_t w = 0; w < dp.n_workers(); ++w) {
    auto r = run_batch(dp, w,
                       {tcp_pkt(Ipv4(9, 1, 1, 1), 1, 1),
                        tcp_pkt(Ipv4(10, 0, 2, 2), 1, 1),
                        tcp_pkt(Ipv4(11, 1, 1, 1), 1, 1)},
                       10);
    EXPECT_EQ(r[0].path, Path::kMegaflowHit) << "worker " << w;
    EXPECT_EQ(r[1].path, Path::kMegaflowHit) << "worker " << w;
    EXPECT_EQ(r[2].path, Path::kMiss) << "worker " << w;
  }
}

TEST(MtDatapathTest, WorkersSeeSharedTable) {
  Datapath dp({}, 2);
  dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
             DpActions().output(2), 0);
  auto r0 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 1, 1), 1, 1)}, 10);
  auto r1 = run_batch(dp, 1, {tcp_pkt(Ipv4(9, 2, 2, 2), 2, 2)}, 10);
  EXPECT_EQ(r0[0].path, Path::kMegaflowHit);
  EXPECT_EQ(r1[0].path, Path::kMegaflowHit);
  // Every shard holds the flow, but EMCs are private: worker 0 resolved
  // 9.1.1.1, and worker 1's EMC has no hint for it, so worker 1 does a full
  // search...
  auto r2 = run_batch(dp, 1, {tcp_pkt(Ipv4(9, 1, 1, 1), 1, 1)}, 20);
  EXPECT_EQ(r2[0].path, Path::kMegaflowHit);
  // ...which installed worker 1's own hint.
  auto r3 = run_batch(dp, 1, {tcp_pkt(Ipv4(9, 1, 1, 1), 1, 1)}, 30);
  EXPECT_EQ(r3[0].path, Path::kMicroflowHit);
}

// The concurrency smoke test the TSan CI job runs: four worker threads pump
// bursts, run to completion, while the control thread churns install /
// update_actions / remove / purge_dead over an overlapping rule set.
TEST(MtDatapathTest, ConcurrentChurnStress) {
  DatapathConfig cfg;
  cfg.microflow_sets = 256;  // 512 EMC slots per worker
  constexpr size_t kWorkers = 4;
  Datapath dp(cfg, kWorkers);

  constexpr int kPrefixes = 16;
  std::vector<Datapath::FlowRef> live(kPrefixes, nullptr);
  for (int i = 0; i < kPrefixes; ++i) {
    live[i] = dp.install(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(uint8_t(10 + i), 0, 0, 0), 8),
        DpActions().output(uint32_t(i + 1)), 0);
    ASSERT_NE(live[i], nullptr);
  }

  // The sink runs under the datapath's upcall lock: no atomics needed.
  uint64_t upcalls = 0;
  dp.set_upcall_sink([&](Packet&&) {
    ++upcalls;
    return true;
  });
  std::atomic<uint64_t> delivered{0};
  dp.set_batch_callback(
      [&](size_t, std::span<const Datapath::RxResult> res) {
        // Touch every result: actions pointers must stay valid for the
        // whole burst even while the control thread removes and retires
        // entries.
        uint64_t n = 0;
        for (const auto& r : res)
          if (r.actions != nullptr && !r.actions->drops()) ++n;
        delivered.fetch_add(n, std::memory_order_relaxed);
      });

  constexpr int kBursts = 200;
  constexpr size_t kBurstLen = 32;
  std::atomic<bool> stop_ctl{false};
  std::thread control([&] {
    Rng rng(0xC0117);
    uint64_t now = 0;
    while (!stop_ctl.load(std::memory_order_relaxed)) {
      const int i = static_cast<int>(rng.uniform(kPrefixes));
      if (live[i] != nullptr) {
        if (rng.uniform(2) == 0) {
          dp.update_actions(live[i], DpActions().output(rng.uniform(64) + 1));
        } else {
          dp.remove(live[i]);
          live[i] = nullptr;
        }
      } else {
        live[i] = dp.install(
            MatchBuilder().ip().nw_dst_prefix(
                Ipv4(uint8_t(10 + i), 0, 0, 0), 8),
            DpActions().output(uint32_t(i + 1)), now);
      }
      if (rng.uniform(4) == 0) dp.purge_dead();
      now += 1000;
    }
  });

  // Worker w runs bursts w, w + n_workers, ... (the burst-to-worker
  // assignment of one rx queue per worker).
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(0xFEED + w);
      std::vector<Packet> burst(kBurstLen);
      std::vector<Datapath::RxResult> res(kBurstLen);
      for (int b = static_cast<int>(w); b < kBursts;
           b += static_cast<int>(kWorkers)) {
        for (Packet& p : burst) {
          p = tcp_pkt(Ipv4(uint8_t(10 + rng.uniform(kPrefixes + 2)),  // some
                           uint8_t(rng.uniform(4)), 1, 1),  // always miss
                      uint16_t(rng.uniform(8)), 80);
        }
        dp.process_batch(w, burst, uint64_t(b) * 1000, res.data());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop_ctl.store(true, std::memory_order_relaxed);
  control.join();
  dp.purge_dead();

  const auto s = dp.stats();
  EXPECT_EQ(s.packets, uint64_t(kBursts) * kBurstLen);
  EXPECT_EQ(s.microflow_hits + s.megaflow_hits + s.misses, s.packets);
  EXPECT_EQ(upcalls + s.upcall_drops, s.misses);
  EXPECT_GT(upcalls, 0u);
  EXPECT_GT(delivered.load(), 0u);

  // The shards stayed in lockstep: every worker forwards each surviving
  // flow with that flow's current actions, and no EMC hint dangles.
  EXPECT_EQ(dp.emc_dangling_hints(), 0u);
  for (int i = 0; i < kPrefixes; ++i) {
    if (live[i] == nullptr) continue;
    for (size_t w = 0; w < kWorkers; ++w) {
      const Packet p = tcp_pkt(Ipv4(uint8_t(10 + i), 9, 9, 9), 1, 80);
      auto r = run_batch(dp, w, {p}, uint64_t(kBursts) * 1000);
      ASSERT_NE(r[0].actions, nullptr);
      EXPECT_EQ(*r[0].actions, dp.flow_actions(live[i]))
          << "prefix " << i << " worker " << w;
    }
  }
}

}  // namespace
}  // namespace ovs
