// Worker-count equivalence property tests: the same trace driven through
// Switches whose datapaths run 1 (datapath_workers = 0), 2 and 4 worker
// shards must produce the same control-plane outcome — the identical
// megaflow set (match + actions), the same flow setups, the same forwarding
// counters and port statistics. Only *where* cache hits land (a worker's
// EMC vs its megaflow classifier) may differ: each worker has its own EMC,
// and the switch rotates bursts across the workers.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datapath/dp_check.h"
#include "sim/clock.h"
#include "test_util.h"
#include "util/rng.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

using testutil::canonical_flows;
using testutil::tcp_pkt;

SwitchConfig make_config(size_t workers) {
  SwitchConfig cfg;
  cfg.datapath_workers = workers;
  return cfg;
}

void install_rules(Switch& sw) {
  for (uint32_t port = 1; port <= 8; ++port) sw.add_port(port);
  for (uint32_t i = 0; i < 8; ++i)
    sw.table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(
            Ipv4(static_cast<uint8_t>(10 + i), 0, 0, 0), 8),
        10, OfActions().output(i % 8 + 1));
  // Narrower megaflows for one prefix: L4-sensitive rule.
  sw.table(0).add_flow(MatchBuilder().tcp().tp_dst(443), 20,
                       OfActions().output(7));
}

// The randomized trace: connection pool with churn, periodic upcall
// handling and maintenance, and a mid-trace flow-table change so
// revalidation has real repairs to publish to every worker.
void drive_trace(Switch& sw, uint64_t seed, size_t n_pkts, size_t rx_batch) {
  Rng rng(seed);
  struct Conn {
    Ipv4 src, dst;
    uint16_t sport, dport;
    uint32_t in_port;
  };
  std::vector<Conn> conns;
  for (size_t i = 0; i < 64; ++i) {
    conns.push_back({Ipv4(1, 1, 1, static_cast<uint8_t>(rng.uniform(250))),
                     Ipv4(static_cast<uint8_t>(10 + rng.uniform(8)),
                          static_cast<uint8_t>(rng.uniform(250)), 0, 5),
                     static_cast<uint16_t>(1024 + rng.uniform(30000)),
                     rng.chance(0.2) ? uint16_t{443}
                                     : static_cast<uint16_t>(80),
                     static_cast<uint32_t>(1 + rng.uniform(8))});
  }

  VirtualClock clock;
  std::vector<Packet> burst;
  for (size_t i = 0; i < n_pkts; ++i) {
    if (rng.chance(0.02))  // connection churn
      conns[rng.uniform(conns.size())] = {
          Ipv4(1, 1, 1, static_cast<uint8_t>(rng.uniform(250))),
          Ipv4(static_cast<uint8_t>(10 + rng.uniform(8)),
               static_cast<uint8_t>(rng.uniform(250)), 0, 5),
          static_cast<uint16_t>(1024 + rng.uniform(30000)),
          static_cast<uint16_t>(80),
          static_cast<uint32_t>(1 + rng.uniform(8))};
    const Conn& c = conns[rng.uniform(conns.size())];
    const Packet p = tcp_pkt(c.in_port, c.src, c.dst, c.sport, c.dport);
    if (rx_batch > 1) {
      burst.push_back(p);
      if (burst.size() == rx_batch) {
        sw.inject_batch(burst, clock.now());
        burst.clear();
        sw.handle_upcalls(clock.now());
      }
    } else {
      sw.inject(p, clock.now());
      if ((i & 31) == 31) sw.handle_upcalls(clock.now());
    }
    clock.advance(50'000);  // 50 us between packets
    if ((i & 511) == 511) sw.run_maintenance(clock.now());
    if (i == n_pkts / 2) {
      // Reroute one /8 mid-trace: revalidation must repair the installed
      // megaflows identically at every worker count (same-shape action
      // update).
      sw.table(0).add_flow(
          MatchBuilder().ip().nw_dst_prefix(Ipv4(12, 0, 0, 0), 8), 15,
          OfActions().output(5));
    }
  }
  if (!burst.empty()) sw.inject_batch(burst, clock.now());
  sw.handle_upcalls(clock.now());
  sw.run_maintenance(clock.now());
}

void expect_equivalent(Switch& a, Switch& b) {
  EXPECT_EQ(canonical_flows(a), canonical_flows(b));
  // Every replayed trace must also leave both caches invariant-clean
  // (pairwise-disjoint megaflows, coherent EMC, conserved stats).
  EXPECT_TRUE(run_dp_check(a.backend()).ok());
  EXPECT_TRUE(run_dp_check(b.backend()).ok());
  EXPECT_EQ(a.backend().flow_count(), b.backend().flow_count());
  EXPECT_EQ(a.counters().flow_setups, b.counters().flow_setups);
  EXPECT_EQ(a.counters().setup_dups, b.counters().setup_dups);
  EXPECT_EQ(a.counters().tx_packets, b.counters().tx_packets);
  EXPECT_EQ(a.counters().tx_bytes, b.counters().tx_bytes);
  EXPECT_EQ(a.counters().to_controller, b.counters().to_controller);
  EXPECT_EQ(a.counters().upcalls_handled, b.counters().upcalls_handled);
  EXPECT_EQ(a.counters().reval_updated_actions,
            b.counters().reval_updated_actions);
  EXPECT_EQ(a.counters().reval_deleted_stale,
            b.counters().reval_deleted_stale);
  const Datapath::Stats sa = a.backend().stats();
  const Datapath::Stats sb = b.backend().stats();
  EXPECT_EQ(sa.packets, sb.packets);
  EXPECT_EQ(sa.misses, sb.misses);
  // EMC vs megaflow hit split legitimately differs (per-worker EMCs), but
  // every packet that is not a miss is a hit at every worker count.
  EXPECT_EQ(sa.microflow_hits + sa.megaflow_hits,
            sb.microflow_hits + sb.megaflow_hits);
  for (uint32_t port = 1; port <= 8; ++port) {
    EXPECT_EQ(a.port_stats(port).tx_packets, b.port_stats(port).tx_packets)
        << "port " << port;
    EXPECT_EQ(a.port_stats(port).tx_bytes, b.port_stats(port).tx_bytes)
        << "port " << port;
  }
}

// The trace through 1, 2 and 4 workers; each multi-worker outcome must
// equal the one-worker outcome.
void expect_worker_counts_equivalent(uint64_t seed, size_t n_pkts,
                                     size_t rx_batch) {
  std::vector<std::unique_ptr<Switch>> sws;
  for (size_t workers : {0, 2, 4}) {
    SwitchConfig cfg = make_config(workers);
    cfg.rx_batch = rx_batch;
    sws.push_back(std::make_unique<Switch>(cfg));
    install_rules(*sws.back());
    drive_trace(*sws.back(), seed, n_pkts, rx_batch);
  }
  EXPECT_EQ(sws[0]->backend().n_workers(), 1u);
  EXPECT_EQ(sws[1]->backend().n_workers(), 2u);
  EXPECT_EQ(sws[2]->backend().n_workers(), 4u);
  ASSERT_NE(sws[0]->backend().flow_count(), 0u);
  for (size_t i = 1; i < sws.size(); ++i) {
    SCOPED_TRACE(std::to_string(sws[i]->backend().n_workers()) + " workers");
    expect_equivalent(*sws[0], *sws[i]);
  }
}

TEST(BackendEquivalence, PerPacketTrace) {
  expect_worker_counts_equivalent(0xE9, 6000, 1);
}

TEST(BackendEquivalence, BatchedTrace) {
  expect_worker_counts_equivalent(0x5EED, 6000, 32);
}

TEST(BackendEquivalence, SeedSweep) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL})
    expect_worker_counts_equivalent(seed, 2000, 1);
}

}  // namespace
}  // namespace ovs
