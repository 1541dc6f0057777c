// Allocation gate for the slow path (DESIGN.md §16).
//
// Replaces the global operator new with a counting one, so it is an
// executable of its own (the replacement must not reach vswitch_tests) and
// is not built under the sanitizers, which bring their own allocator. On the
// stateful NVP pipeline, once the switch has seen its working set, it
// asserts that
//   * an upcall translation allocates nothing, for a new connection (whose
//     ct(commit) inserts into the tracker) and for an established one;
//   * a revalidation re-translation and a kKeepFresh decision allocate
//     nothing;
//   * handling an upcall that installs a fresh flow allocates at most once:
//     the entry itself, which carries the actions and attribution inline.
// Counts are deterministic, so host noise cannot move this gate.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

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

  // A new connection: classification through four tables plus a commit.
  const size_t ct_before = pl.conntrack().size();
  const Packet syn = pkt(next_conn_, true, kSyn);
  size_t a0 = g_allocs;
  const XlateResult& fresh = pl.translate(syn.key, now_, scratch);
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_EQ(fresh.ct_lookups, 1u);
  EXPECT_EQ(fresh.matched_rules.size(), 4u);
  EXPECT_FALSE(fresh.actions.list.empty());
  EXPECT_EQ(pl.conntrack().size(), ct_before + 1);

  // The established reply.
  const Packet reply = pkt(next_conn_, false, kSynAck);
  a0 = g_allocs;
  const XlateResult& est = pl.translate(reply.key, now_, scratch);
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_EQ(est.ct_lookups, 1u);
  ++next_conn_;

  // A full miss burst, one translation after another.
  std::vector<Packet> burst;
  for (size_t i = 0; i < 32; ++i)
    burst.push_back(pkt(next_conn_ + i, true, kSyn));
  next_conn_ += 32;
  size_t translated = 0;
  a0 = g_allocs;
  for (const Packet& p : burst)
    translated += pl.translate(p.key, now_, scratch).ct_lookups;
  EXPECT_EQ(g_allocs - a0, 0u);
  EXPECT_EQ(translated, 32u);
}

TEST_F(AllocGate, InstallAllocatesAtMostTheEntry) {
  std::vector<Packet> burst;
  for (size_t i = 0; i < 32; ++i)
    burst.push_back(pkt(next_conn_ + i, true, kSyn));
  next_conn_ += 32;
  const uint64_t setups0 = sw_.counters().flow_setups;
  const uint64_t handled0 = sw_.counters().upcalls_handled;
  size_t a0 = g_allocs;
  sw_.inject_batch(burst, now_);
  const size_t inject_allocs = g_allocs - a0;
  a0 = g_allocs;
  sw_.handle_upcalls(now_);
  const size_t upcall_allocs = g_allocs - a0;
  const uint64_t setups = sw_.counters().flow_setups - setups0;
  EXPECT_EQ(sw_.counters().upcalls_handled - handled0, 32u);
  EXPECT_EQ(setups, 32u);
  // Queueing the misses reuses the queue's ring storage.
  EXPECT_EQ(inject_allocs, 0u);
  // Translation, install and record: the entry is the only allocation.
  EXPECT_LE(upcall_allocs, setups);
}

TEST_F(AllocGate, RevalidationAllocatesNothingPerFlow) {
  crr(next_conn_, 128, /*teardown=*/false);  // live flows to revalidate
  next_conn_ += 128;
  DpBackend& be = sw_.backend();
  const std::vector<DpBackend::FlowRef> flows = be.dump();
  ASSERT_GE(flows.size(), 256u);

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

}  // namespace
}  // namespace ovs
