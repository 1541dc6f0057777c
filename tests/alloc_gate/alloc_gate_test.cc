// Allocation gate for the slow path (DESIGN.md §16).
//
// Replaces the global operator new with a counting one, so it is an
// executable of its own (the replacement must not reach vswitch_tests) and
// is not built under the sanitizers, which bring their own allocator. On the
// stateful NVP pipeline, once the switch has seen its working set, it
// asserts that
//   * an upcall translation allocates nothing, for a packet's first stage
//     (which stops at ct) and for its recirculated stage;
//   * recirculating a packet through the datapath's ct allocates nothing,
//     for new connections (whose commits reuse torn-down tracker nodes)
//     and established ones;
//   * a revalidation re-translation and a kKeepFresh decision allocate
//     nothing;
//   * handling an upcall that installs a fresh flow allocates at most once:
//     the entry itself, which carries the actions and attribution inline;
//   * a multi-worker datapath hands a burst of misses to its upcall sink
//     without allocating;
//   * a megaflow mask that empties and refills reuses its classifier
//     subtable: an install allocates its entries, one per worker shard,
//     and nothing else.
// Counts are deterministic, so host noise cannot move this gate.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <vector>

#include "datapath/datapath.h"
#include "vswitchd/revalidator.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace {
size_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ovs {
namespace {

constexpr uint16_t kSyn = 0x002, kAck = 0x010, kFinAck = 0x011,
                   kSynAck = kSyn | kAck;

class AllocGate : public ::testing::Test {
 protected:
  void SetUp() override {
    NvpConfig nc;
    nc.n_tenants = 4;
    nc.vms_per_tenant = 4;
    nc.acl_tenant_fraction = 1.0;
    nc.stateful_acl_tenants = true;
    topo_ = install_nvp_pipeline(sw_, nc);
    sw_.set_output_handler([](uint32_t, const Packet&) {});
    // Warm-up: the switch sees its working set — full-size batches, torn
    // down connections whose tracker nodes are reused, a megaflow table
    // at its peak size, a few revalidation passes. Then the warm-up flows
    // idle out while a few resident connections keep every megaflow mask
    // in use, as steady traffic does; the tests below install into
    // storage the table already grew.
    for (int round = 0; round < 4; ++round) {
      crr(0, kResident, /*teardown=*/true);
      crr(next_conn_, 256, /*teardown=*/true);
      next_conn_ += 256;
      maintain();
    }
    for (int round = 0; round < 4; ++round) {
      now_ += 4 * kSecond;
      crr(0, kResident, /*teardown=*/true);
      maintain();
    }
    EXPECT_LE(sw_.backend().flow_count(), 4 * kResident);
  }

  // A packet of connection `conn` (client and server VMs of one tenant).
  Packet pkt(size_t conn, bool from_client, uint16_t flags) const {
    const size_t per_tenant = 4;
    const size_t tenant = conn % 4;
    const NvpVm& c = topo_.vms[tenant * per_tenant + conn / 4 % 2];
    const NvpVm& s = topo_.vms[tenant * per_tenant + 2 + conn / 8 % 2];
    const uint16_t eph = static_cast<uint16_t>(32768 + conn % 28000);
    const uint16_t svc = 8080;
    Packet p = from_client ? nvp_packet(c, s, eph, svc)
                           : nvp_packet(s, c, svc, eph);
    p.key.set_tcp_flags(flags);
    return p;
  }

  void inject(const std::vector<Packet>& burst) {
    sw_.inject_batch(burst, now_);
    sw_.handle_upcalls(now_);
    now_ += 1000;
  }

  // Handshakes (and teardowns) of connections first..first+n, 32 packets
  // a burst.
  void crr(size_t first, size_t n, bool teardown) {
    std::vector<Packet> burst;
    for (uint16_t flags : {kSyn, kSynAck, kAck, kFinAck}) {
      if (flags == kFinAck && !teardown) break;
      for (size_t i = 0; i < n; ++i) {
        burst.push_back(pkt(first + i, flags != kSynAck, flags));
        if (burst.size() == 32) {
          inject(burst);
          burst.clear();
        }
      }
      if (!burst.empty()) inject(burst);
      burst.clear();
    }
  }

  void maintain() {
    now_ += kSecond;
    sw_.run_maintenance(now_);
  }

  Switch sw_{SwitchConfig{}};
  NvpTopology topo_;
  static constexpr size_t kResident = 8;
  uint64_t now_ = 1;
  size_t next_conn_ = kResident;
};

TEST_F(AllocGate, UpcallTranslationAllocatesNothing) {
  Pipeline& pl = sw_.pipeline();
  XlateScratch scratch;
  pl.translate(pkt(next_conn_, true, kSyn).key, now_, scratch);
  ++next_conn_;

  // A packet's first stage: classification through three tables, up to
  // the ACL's ct.
  const Packet syn = pkt(next_conn_, true, kSyn);
  size_t a0 = g_allocs;
  const XlateResult& first = pl.translate(syn.key, now_, scratch);
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_TRUE(first.froze);
  EXPECT_EQ(first.matched_rules.size(), 3u);
  EXPECT_TRUE(first.actions.recirculates());
  EXPECT_NE(first.actions.recirc_id(), 0u);

  // Its recirculated stage, resumed from the frozen state.
  FlowKey recirc = syn.key;
  first.actions.apply_set_fields(recirc);
  recirc.set_ct_state(ct_state::kNew);
  recirc.set_recirc_id(first.actions.recirc_id());
  a0 = g_allocs;
  const XlateResult& second = pl.translate(recirc, now_, scratch);
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_FALSE(second.froze);
  EXPECT_EQ(second.matched_rules.size(), 1u);
  EXPECT_FALSE(second.actions.list.empty());
  ++next_conn_;

  // A full miss burst, one translation after another.
  std::vector<Packet> burst;
  for (size_t i = 0; i < 32; ++i)
    burst.push_back(pkt(next_conn_ + i, true, kSyn));
  next_conn_ += 32;
  size_t translated = 0;
  a0 = g_allocs;
  for (const Packet& p : burst)
    translated += pl.translate(p.key, now_, scratch).froze;
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_EQ(translated, 32u);
}

TEST_F(AllocGate, RecirculationAllocatesNothing) {
  // New connections and their replies: every packet hits a warm pre-ct
  // megaflow, runs ct and hits a warm post-ct megaflow.
  std::vector<Packet> syns, replies;
  for (size_t i = 0; i < 32; ++i) {
    syns.push_back(pkt(i % kResident, true, kSyn));
    replies.push_back(pkt(i % kResident, false, kSynAck));
  }
  inject(syns);
  inject(replies);
  const uint64_t handled0 = sw_.counters().upcalls_handled;
  const uint64_t recirc0 = sw_.backend().stats().recirculations;
  const size_t a0 = g_allocs;
  for (int round = 0; round < 4; ++round) {
    inject(syns);
    inject(replies);
  }
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_EQ(sw_.counters().upcalls_handled, handled0);
  EXPECT_EQ(sw_.backend().stats().recirculations - recirc0, 8 * 32u);
}

TEST_F(AllocGate, InstallAllocatesAtMostTheEntry) {
  // Every megaflow gone, so a burst's packets install afresh: first stages
  // and recirculated stages alike. The first such burst grows the miss
  // path's storage; the second is measured.
  auto flush = [&] {
    for (Datapath::FlowRef f : sw_.backend().dump()) sw_.backend().remove(f);
    sw_.backend().purge_dead();
  };
  std::vector<Packet> burst;
  for (size_t i = 0; i < 32; ++i)
    burst.push_back(pkt(next_conn_ + i, true, kSyn));
  next_conn_ += 32;
  flush();
  inject(burst);
  flush();
  const uint64_t setups0 = sw_.counters().flow_setups;
  const uint64_t dups0 = sw_.counters().setup_dups;
  const uint64_t handled0 = sw_.counters().upcalls_handled;
  size_t a0 = g_allocs;
  sw_.inject_batch(burst, now_);
  const size_t inject_allocs = g_allocs - a0;
  a0 = g_allocs;
  sw_.handle_upcalls(now_);
  const size_t upcall_allocs = g_allocs - a0;
  const uint64_t setups = sw_.counters().flow_setups - setups0;
  EXPECT_GT(setups, 16u);
  EXPECT_EQ(sw_.counters().upcalls_handled - handled0,
            setups + sw_.counters().setup_dups - dups0);
  // Queueing the misses reuses the queue's ring storage.
  EXPECT_EQ(inject_allocs, 0u);
  // Translation, install and record: the entry is the only allocation.
  EXPECT_LE(upcall_allocs, setups);
}

TEST_F(AllocGate, RevalidationAllocatesNothingPerFlow) {
  crr(next_conn_, 128, /*teardown=*/false);  // live flows to revalidate
  next_conn_ += 128;
  Datapath& be = sw_.backend();
  const std::vector<Datapath::FlowRef> flows = be.dump();
  ASSERT_GE(flows.size(), 48u);

  Revalidator::Config rc;
  rc.idle_ns = ~uint64_t{0} / 2;
  rc.maybe_stale = true;  // a full pass: every flow re-translates
  RevalPlan plan;
  Revalidator::plan(be, sw_.pipeline(), flows, now_, rc, &plan);  // warm-up
  const size_t a0 = g_allocs;
  const RevalPassStats ps =
      Revalidator::plan(be, sw_.pipeline(), flows, now_, rc, &plan);
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_EQ(ps.retranslated, flows.size());
  size_t fresh = 0;
  for (const RevalDecision& d : plan.decisions) {
    fresh += d.kind == RevalDecision::Kind::kKeepFresh;
    EXPECT_FALSE(d.new_rules);
  }
  EXPECT_EQ(fresh, flows.size());

  // Through the switch: a forced full pass re-translates every flow, and
  // what it allocates (the dump) does not grow with them.
  sw_.force_full_revalidation();
  maintain();
  sw_.force_full_revalidation();
  const size_t m0 = g_allocs;
  maintain();
  EXPECT_GE(sw_.last_reval_pass().retranslated, flows.size());
  EXPECT_LE(g_allocs - m0, 2u);
}

TEST_F(AllocGate, ShardedMissBurstAllocatesNothing) {
  Datapath dp({}, 2);
  size_t sunk = 0;
  dp.set_upcall_sink([&sunk](Packet&&) {
    ++sunk;
    return true;
  });
  // No flows: every packet misses every tier and goes to the sink.
  std::vector<Packet> burst;
  for (size_t i = 0; i < 32; ++i) burst.push_back(pkt(i, true, kSyn));
  std::array<Datapath::RxResult, 32> res;
  for (size_t w = 0; w < dp.n_workers(); ++w)  // warm-up
    dp.process_batch(w, burst, now_, res.data());
  constexpr size_t kBursts = 100;
  const size_t a0 = g_allocs;
  for (size_t b = 0; b < kBursts; ++b)
    dp.process_batch(b % dp.n_workers(), burst, now_, res.data());
  EXPECT_EQ(g_allocs - a0, 0u);
  const size_t bursts = kBursts + dp.n_workers();
  EXPECT_EQ(sunk, bursts * burst.size());
  EXPECT_EQ(dp.stats().misses, bursts * burst.size());
}

TEST_F(AllocGate, FlappingMaskReusesItsSubtable) {
  for (size_t workers : {1, 2}) {
    SCOPED_TRACE(workers);
    Datapath dp({}, workers);
    // A resident flow keeps the classifier non-empty; the flapping mask
    // (a /16 beside the resident /8) loses its last flow each round.
    ASSERT_NE(dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
                         DpActions().output(1), 0),
              nullptr);
    auto flap = [&](uint8_t round) {
      const Match m =
          MatchBuilder().ip().nw_dst_prefix(Ipv4(10, round, 0, 0), 16);
      Datapath::FlowRef f = dp.install(m, DpActions().output(2), 0);
      EXPECT_EQ(dp.mask_count(), 2u);
      dp.remove(f);
      dp.purge_dead();
      EXPECT_EQ(dp.mask_count(), 1u);
    };
    flap(0);  // warm-up: the subtable and the shards' vectors exist
    constexpr uint8_t kRounds = 50;
    const size_t a0 = g_allocs;
    for (uint8_t r = 1; r <= kRounds; ++r) flap(r);
    // One allocation per install per shard: the entry.
    EXPECT_EQ(g_allocs - a0, kRounds * workers);
  }
}

}  // namespace
}  // namespace ovs
