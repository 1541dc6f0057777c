// Property test: process_batch is observably identical to calling receive()
// per packet — same per-packet path and actions, same upcalls in the same
// order, same per-entry statistics, same datapath counters — across
// randomized workloads, with the EMC on and off, with one worker shard and
// with two (bursts alternating between the workers, each with its own EMC).
// The only licensed divergence is
// the cumulative tuples_searched counter: deduplicated burst followers never
// physically probe a table.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "datapath/datapath.h"
#include "packet/match.h"
#include "test_util.h"
#include "util/rng.h"

namespace ovs {
namespace {

using testutil::dp_tcp_pkt;

// One worker shard, or two.
std::unique_ptr<Datapath> make_dp(bool sharded, bool microflow) {
  DatapathConfig cfg;
  cfg.microflow_enabled = microflow;
  return std::make_unique<Datapath>(cfg, sharded ? 2 : 1);
}

// Installs the same K /8 megaflows into both datapaths; dsts 10.x–(10+K-1).x
// are covered, anything above misses.
void fill(Datapath& dp, int k) {
  for (int i = 0; i < k; ++i) {
    dp.install(MatchBuilder().ip().nw_dst_prefix(
                   Ipv4(uint8_t(10 + i), 0, 0, 0), 8),
               DpActions().output(uint32_t(i + 1)), 0);
  }
}

// A workload mixing repeated microflows (intra-burst dedup), distinct
// microflows sharing megaflows (group stats), and uncovered dsts (misses).
std::vector<Packet> random_workload(Rng& rng, size_t n, int k) {
  std::vector<Packet> pkts;
  pkts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t oct = uint8_t(10 + rng.uniform(size_t(k) + 2));
    pkts.push_back(dp_tcp_pkt(Ipv4(oct, uint8_t(rng.uniform(3)), 0, 1),
                              uint16_t(rng.uniform(6)), 80));
  }
  return pkts;
}

void expect_equivalent(Datapath& seq, Datapath& bat,
                       const std::vector<Packet>& pkts, size_t batch_size,
                       uint64_t t0) {
  testutil::UpcallCollector uq_s(seq), uq_b(bat);

  // Sequential reference: one receive() per packet, each burst's packets
  // on the worker that takes the burst in the batched run.
  std::vector<Datapath::RxResult> want;
  want.reserve(pkts.size());
  uint64_t now = t0;
  for (size_t off = 0; off < pkts.size(); off += batch_size) {
    const size_t n = std::min(batch_size, pkts.size() - off);
    const size_t w = off / batch_size % seq.n_workers();
    for (size_t i = 0; i < n; ++i)
      want.push_back(seq.receive(w, pkts[off + i], now));
    now += 1000;
  }

  // Batched run over the same virtual timestamps.
  std::vector<Datapath::RxResult> got(pkts.size());
  now = t0;
  for (size_t off = 0; off < pkts.size(); off += batch_size) {
    const size_t n = std::min(batch_size, pkts.size() - off);
    bat.process_batch(off / batch_size % bat.n_workers(),
                      std::span<const Packet>(pkts.data() + off, n), now,
                      got.data() + off);
    now += 1000;
  }

  for (size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(got[i].path, want[i].path) << "packet " << i;
    const bool want_null = want[i].actions == nullptr;
    const bool got_null = got[i].actions == nullptr;
    ASSERT_EQ(got_null, want_null) << "packet " << i;
    if (!want_null) {
      EXPECT_EQ(got[i].actions->to_string(), want[i].actions->to_string())
          << "packet " << i;
    }
  }

  // Upcalls: same packets in the same order.
  ASSERT_EQ(uq_b.pkts.size(), uq_s.pkts.size());
  for (size_t i = 0; i < uq_s.pkts.size(); ++i)
    EXPECT_EQ(uq_b.pkts[i].key, uq_s.pkts[i].key) << "upcall " << i;

  // Per-entry statistics (same install order => same dump order).
  auto es = seq.dump();
  auto eb = bat.dump();
  ASSERT_EQ(eb.size(), es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(bat.flow_packets(eb[i]), seq.flow_packets(es[i]))
        << "entry " << i;
    EXPECT_EQ(bat.flow_bytes(eb[i]), seq.flow_bytes(es[i])) << "entry " << i;
    EXPECT_EQ(bat.flow_used_ns(eb[i]), seq.flow_used_ns(es[i]))
        << "entry " << i;
  }

  // Datapath counters, minus the licensed tuples_searched divergence.
  const auto ss = seq.stats();
  const auto sb = bat.stats();
  EXPECT_EQ(sb.packets, ss.packets);
  EXPECT_EQ(sb.microflow_hits, ss.microflow_hits);
  EXPECT_EQ(sb.megaflow_hits, ss.megaflow_hits);
  EXPECT_EQ(sb.misses, ss.misses);
  EXPECT_EQ(sb.upcall_drops, ss.upcall_drops);
  EXPECT_EQ(sb.stale_microflow_hits, ss.stale_microflow_hits);
}

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, bool, size_t>> {};

TEST_P(BatchEquivalence, RandomWorkloads) {
  const auto [microflow, sharded, batch_size] = GetParam();
  for (uint64_t seed : {0x1ull, 0xBEEFull, 0x5EEDull}) {
    const auto seq = make_dp(sharded, microflow);
    const auto bat = make_dp(sharded, microflow);
    fill(*seq, 6);
    fill(*bat, 6);
    Rng rng(seed);
    const auto pkts = random_workload(rng, 400, 6);
    expect_equivalent(*seq, *bat, pkts, batch_size, /*t0=*/1000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlagMatrix, BatchEquivalence,
    ::testing::Combine(::testing::Bool(),          // microflow_enabled
                       ::testing::Bool(),          // sharded (two workers)
                       ::testing::Values<size_t>(1, 8, 32, 128, 300)));

// Removal mid-stream: batches must see the same stale-EMC corrections the
// sequential path sees.
TEST(BatchEquivalenceTest, RemovalStaleness) {
  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "single");
    const auto seq_dp = make_dp(sharded, /*microflow=*/true);
    const auto bat_dp = make_dp(sharded, /*microflow=*/true);
    Datapath& seq = *seq_dp;
    Datapath& bat = *bat_dp;
    fill(seq, 2);
    fill(bat, 2);

    Rng rng(0xDEAD);
    auto warm = random_workload(rng, 64, 2);
    expect_equivalent(seq, bat, warm, 16, 1000);

    // Remove the first megaflow from both; EMC entries become stale.
    seq.remove(seq.dump()[0]);
    bat.remove(bat.dump()[0]);

    Rng rng2(0xDEAD);
    auto after = random_workload(rng2, 64, 2);
    expect_equivalent(seq, bat, after, 16, 200000);

    seq.purge_dead();
    bat.purge_dead();
    Rng rng3(0xF00D);
    auto post_purge = random_workload(rng3, 64, 2);
    expect_equivalent(seq, bat, post_purge, 16, 400000);
  }
}

}  // namespace
}  // namespace ovs
