// Property test: process_batch is observably identical to calling receive()
// per packet — same per-packet path and actions, same upcalls (recirculated
// ones too) in the same order, same per-entry and per-NIC-slot statistics,
// same datapath counters — across randomized workloads, with the EMC on and
// off, with one worker shard and with two (bursts alternating between the
// workers, each with its own EMC), with the NIC offload tier, through
// recirculating megaflows, and for the burst shapes at the edges of the
// grouping table and of a chunk. The only licensed divergence is the
// cumulative tuples_searched counter: deduplicated burst followers never
// physically probe a table.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datapath/datapath.h"
#include "packet/match.h"
#include "test_util.h"
#include "util/rng.h"

namespace ovs {
namespace {

using testutil::dp_tcp_pkt;

// One worker shard, or two.
std::unique_ptr<Datapath> make_dp(bool sharded, bool microflow,
                                  size_t offload_slots = 0) {
  DatapathConfig cfg;
  cfg.microflow_enabled = microflow;
  cfg.offload_slots = offload_slots;
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

  // A recirculated packet's fate lives in its shard only until the shard's
  // next packet or burst, so each result's actions are rendered at once.
  auto fate = [](const Datapath::RxResult& r) {
    return r.actions == nullptr ? std::string("(none)")
                                : r.actions->to_string();
  };

  // Sequential reference: one receive() per packet, each burst's packets
  // on the worker that takes the burst in the batched run.
  std::vector<Datapath::Path> want;
  std::vector<std::string> want_fate;
  uint64_t now = t0;
  for (size_t off = 0; off < pkts.size(); off += batch_size) {
    const size_t n = std::min(batch_size, pkts.size() - off);
    const size_t w = off / batch_size % seq.n_workers();
    for (size_t i = 0; i < n; ++i) {
      const Datapath::RxResult r = seq.receive(w, pkts[off + i], now);
      want.push_back(r.path);
      want_fate.push_back(fate(r));
    }
    now += 1000;
  }

  // Batched run over the same virtual timestamps.
  std::vector<Datapath::RxResult> got(pkts.size());
  std::vector<std::string> got_fate;
  now = t0;
  for (size_t off = 0; off < pkts.size(); off += batch_size) {
    const size_t n = std::min(batch_size, pkts.size() - off);
    bat.process_batch(off / batch_size % bat.n_workers(),
                      std::span<const Packet>(pkts.data() + off, n), now,
                      got.data() + off);
    for (size_t i = 0; i < n; ++i) got_fate.push_back(fate(got[off + i]));
    now += 1000;
  }

  for (size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(got[i].path, want[i]) << "packet " << i;
    EXPECT_EQ(got_fate[i], want_fate[i]) << "packet " << i;
  }

  // Upcalls: same packets in the same order.
  ASSERT_EQ(uq_b.pkts.size(), uq_s.pkts.size());
  for (size_t i = 0; i < uq_s.pkts.size(); ++i)
    EXPECT_EQ(uq_b.pkts[i].key, uq_s.pkts[i].key) << "upcall " << i;
  std::vector<RecircUpcall> rs, rb;
  seq.take_recirc_upcalls(&rs);
  bat.take_recirc_upcalls(&rb);
  ASSERT_EQ(rb.size(), rs.size());
  for (size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rb[i].key, rs[i].key) << "recirc upcall " << i;
    EXPECT_EQ(rb[i].depth, rs[i].depth) << "recirc upcall " << i;
    EXPECT_EQ(rb[i].fate, rs[i].fate) << "recirc upcall " << i;
  }

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

  // NIC slots (same offload order => same dump order).
  const auto os = seq.offload_dump();
  const auto ob = bat.offload_dump();
  ASSERT_EQ(ob.size(), os.size());
  for (size_t i = 0; i < os.size(); ++i) {
    EXPECT_EQ(ob[i].hits, os[i].hits) << "slot " << i;
    EXPECT_EQ(ob[i].bytes, os[i].bytes) << "slot " << i;
  }

  // Datapath counters, minus the licensed tuples_searched divergence.
  const auto ss = seq.stats();
  const auto sb = bat.stats();
  EXPECT_EQ(sb.packets, ss.packets);
  EXPECT_EQ(sb.offload_hits, ss.offload_hits);
  EXPECT_EQ(sb.microflow_hits, ss.microflow_hits);
  EXPECT_EQ(sb.megaflow_hits, ss.megaflow_hits);
  EXPECT_EQ(sb.misses, ss.misses);
  EXPECT_EQ(sb.upcall_drops, ss.upcall_drops);
  EXPECT_EQ(sb.stale_microflow_hits, ss.stale_microflow_hits);
  EXPECT_EQ(sb.recirculations, ss.recirculations);
  EXPECT_EQ(sb.recirc_misses, ss.recirc_misses);
}

// Runs `test(microflow, sharded)` over the EMC/worker flag matrix.
template <typename F>
void for_each_flag(F test) {
  for (bool microflow : {false, true}) {
    for (bool sharded : {false, true}) {
      SCOPED_TRACE(std::string(microflow ? "emc" : "no-emc") +
                   (sharded ? ", sharded" : ", single"));
      test(microflow, sharded);
    }
  }
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

// The NIC tier absorbs the first three megaflows: a slot's hits and bytes,
// and its owner's statistics, come out as the sequential run's.
TEST(BatchEquivalenceTest, Offload) {
  for_each_flag([](bool microflow, bool sharded) {
    const auto seq = make_dp(sharded, microflow, /*offload_slots=*/4);
    const auto bat = make_dp(sharded, microflow, /*offload_slots=*/4);
    fill(*seq, 6);
    fill(*bat, 6);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(seq->offload_install(seq->dump()[i], 0));
      ASSERT_TRUE(bat->offload_install(bat->dump()[i], 0));
    }
    Rng rng(0x0FF1);
    const auto pkts = random_workload(rng, 400, 6);
    expect_equivalent(*seq, *bat, pkts, 32, /*t0=*/1000);
    EXPECT_GT(bat->stats().offload_hits, 0u);
  });
}

// A post-ct megaflow: recirc_id `recirc`, ct_state `state`, /8 dst `oct`.
Match post_ct(uint32_t recirc, uint8_t state, uint8_t oct) {
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(oct, 0, 0, 0), 8)
                .ct_state(state);
  m.mask.set_exact(FieldId::kRecircId);
  m.key.set_recirc_id(recirc);
  return m;
}

// Even /8s commit their connection in ct and recirculate, into a post-ct
// megaflow per ct_state (new, established) — except the last, whose
// recirculated lookups miss; odd /8s output directly. A connection's first
// packet is new and its later ones established, so a burst's copies of one
// microflow take different post-ct megaflows: the fates, both stages'
// statistics and the recirculation upcalls must come out as receive()'s.
void fill_recirculating(Datapath& dp, int k) {
  for (int i = 0; i < k; ++i) {
    const uint8_t oct = uint8_t(10 + i);
    DpActions first;
    if (i % 2 == 1) {
      first.output(uint32_t(i + 1));
    } else {
      first.set_field(FieldId::kReg0, uint64_t(i));
      first.list.push_back(
          CtAction{1, true, CtAction::Nat::kNone, 0, 0, uint32_t(7 + i)});
    }
    dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(oct, 0, 0, 0), 8),
               std::move(first), 0);
    if (i % 2 == 1 || i == k - 2) continue;
    dp.install(post_ct(uint32_t(7 + i), ct_state::kNew, oct),
               DpActions().output(uint32_t(100 + i)), 0);
    dp.install(post_ct(uint32_t(7 + i), ct_state::kEstablished, oct),
               DpActions().output(uint32_t(200 + i)), 0);
  }
}

TEST(BatchEquivalenceTest, Recirculation) {
  for_each_flag([](bool microflow, bool sharded) {
    for (uint64_t seed : {0xC7ull, 0xC0FFEEull}) {
      const auto seq = make_dp(sharded, microflow);
      const auto bat = make_dp(sharded, microflow);
      fill_recirculating(*seq, 6);
      fill_recirculating(*bat, 6);
      Rng rng(seed);
      const auto pkts = random_workload(rng, 400, 6);
      expect_equivalent(*seq, *bat, pkts, 32, /*t0=*/1000);
      const Datapath::Stats st = bat->stats();
      EXPECT_GT(st.recirculations, 0u);
      EXPECT_GT(st.recirc_misses, 0u);
    }
  });
}

// The burst shapes at the grouping table's and a chunk's edges: one
// microflow repeated, all microflows distinct, exactly kMaxBatch packets
// and kMaxBatch + 1 (a second chunk of one packet), each as one burst.
TEST(BatchEquivalenceTest, BurstShapes) {
  constexpr size_t kMax = Datapath::kMaxBatch;
  // Packet i of an all-distinct burst: dsts cycle over the six covered /8s
  // and two uncovered ones, the rest of the address tells them apart.
  auto distinct = [](size_t n) {
    std::vector<Packet> pkts;
    for (size_t i = 0; i < n; ++i)
      pkts.push_back(dp_tcp_pkt(Ipv4(uint8_t(10 + i % 8), uint8_t(i / 8), 0, 1),
                                uint16_t(i % 6), 80));
    return pkts;
  };
  struct Shape {
    const char* name;
    std::vector<Packet> pkts;
  };
  const Shape shapes[] = {
      {"one microflow", std::vector<Packet>(
                            kMax, dp_tcp_pkt(Ipv4(11, 1, 0, 1), 3, 80))},
      {"one missing microflow",
       std::vector<Packet>(64, dp_tcp_pkt(Ipv4(17, 1, 0, 1), 3, 80))},
      {"all distinct", distinct(200)},
      {"kMaxBatch", [&] {
         Rng rng(0x5A);
         return random_workload(rng, kMax, 6);
       }()},
      {"kMaxBatch + 1", [&] {
         Rng rng(0x5B);
         return random_workload(rng, kMax + 1, 6);
       }()},
      {"kMaxBatch + 1 distinct", distinct(kMax + 1)},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    for_each_flag([&](bool microflow, bool sharded) {
      const auto seq = make_dp(sharded, microflow);
      const auto bat = make_dp(sharded, microflow);
      fill(*seq, 6);
      fill(*bat, 6);
      // Twice: into a cold EMC, then a warm one.
      expect_equivalent(*seq, *bat, shape.pkts, shape.pkts.size(), 1000);
      expect_equivalent(*seq, *bat, shape.pkts, shape.pkts.size(), 2000);
    });
  }
}

}  // namespace
}  // namespace ovs
