// Megaflow soundness on the stateful NVP pipeline (DESIGN.md §15, "What a
// flow depends on"). A megaflow stands for every packet its mask covers, so
// every such packet must translate to the same actions and the same mask on
// the same switch state. This suite drives CRR connections, data segments,
// RSTs and stray FIN/RST packets through a switch and, before each packet
// reaches it, translates each of its stages and 32 variants of each
// without side effects: the first stage (which stops at ct) on the packet,
// every post-recirculation stage on the key the datapath would recirculate
// (the stage's rewrites, the tracker's NAT rewrite and ct_state, the
// recirc_id). A variant keeps every bit the mask holds and randomises every
// wildcarded one: the 5-tuple and tcp_flags of every stage, which no stage
// consults, ct_state where the post-ct tables do not read it, the fields
// the pipeline never reads. One ACL tenant's service source-NATs its
// connections, so a post-ct stage also sees rewritten headers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ofproto/pipeline.h"
#include "sim/clock.h"
#include "util/rng.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

constexpr uint16_t kFin = 0x001, kSyn = 0x002, kRst = 0x004, kAck = 0x010,
                   kPshAck = 0x018, kFinAck = 0x011, kRstAck = 0x014,
                   kSynAck = kSyn | kAck;

constexpr uint16_t kCommitSvc = 8000;  // ct(commit): every ACL tenant
constexpr uint16_t kNatSvc = 9000;     // ct(commit,nat(src=...)): tenant 1
constexpr uint16_t kLookupSvc = 7000;  // ct(table=3), lookup only: tenant 2
constexpr Ipv4 kNatAddr = Ipv4(10, 1, 200, 1);
constexpr uint16_t kNatPort = 40000;
constexpr size_t kVariants = 32;

// The client's side of one connection's wire exchange, frame by frame.
constexpr uint16_t kCrr[8] = {kSyn,    kSynAck, kAck,    kPshAck,
                              kPshAck, kFinAck, kFinAck, kAck};
constexpr bool kCrrFromClient[8] = {true,  false, true, true,
                                    false, true,  false, true};

struct Conn {
  const NvpVm* client;
  const NvpVm* server;
  uint16_t eph;
  uint16_t svc;
  size_t next = 0;        // next frame of kCrr
  bool reply_to_nat = false;
};

class SoundnessDriver {
 public:
  explicit SoundnessDriver(uint64_t seed) : rng_(seed) {
    NvpConfig nc;
    nc.n_tenants = 4;
    nc.vms_per_tenant = 4;
    nc.acl_tenant_fraction = 0.5;
    nc.stateful_acl_tenants = true;
    topo_ = install_nvp_pipeline(sw_, nc);
    EXPECT_EQ("", sw_.add_flow(
                      "table=2, priority=30, metadata=1, tcp, tp_dst=9000, "
                      "actions=ct(commit,nat(src=10.1.200.1:40000),table=3)"));
    EXPECT_EQ("", sw_.add_flow("table=2, priority=30, metadata=2, tcp, "
                               "tp_dst=7000, actions=ct(table=3)"));
    sw_.set_output_handler([](uint32_t, const Packet&) {});
    clock_.advance(kSecond);
  }

  // One random event: a new connection, the next frame of one, a data
  // segment or RST on one, a stray FIN/RST on an unknown tuple, or a
  // maintenance pass.
  void step() {
    const uint64_t r = rng_.uniform(100);
    if (r < 15 || conns_.empty()) {
      open_conn();
    } else if (r < 60) {
      advance(pick());
    } else if (r < 75) {
      Conn& c = pick();
      const bool from_client = rng_.chance(0.5);
      send(c, from_client, rng_.chance(0.5) ? kAck : kPshAck);
    } else if (r < 83) {
      Conn& c = pick();
      send(c, rng_.chance(0.5), rng_.chance(0.5) ? kRst : kRstAck);
    } else if (r < 93) {
      stray();
    } else {
      clock_.advance(200 * kMillisecond);
      sw_.run_maintenance(clock_.now());
    }
    clock_.advance(kMicrosecond);
  }

  const Switch& sw() const { return sw_; }
  size_t checked() const { return checked_; }
  size_t checked_post_ct() const { return checked_post_ct_; }

 private:
  const NvpVm& vm(uint64_t tenant, size_t i) const {
    return topo_.vms[(tenant - 1) * 4 + i];
  }

  void open_conn() {
    const uint64_t tenant = 1 + rng_.uniform(4);
    const size_t a = rng_.uniform(4);
    const size_t b = (a + 1 + rng_.uniform(3)) % 4;
    Conn c{&vm(tenant, a), &vm(tenant, b),
           static_cast<uint16_t>(32768 + rng_.uniform(28000)), kCommitSvc};
    const uint64_t svc = rng_.uniform(4);
    if (svc == 1) c.svc = kNatSvc;
    if (svc == 2) c.svc = kLookupSvc;
    if (svc == 3 && !topo_.blocked_ports.empty())
      c.svc = topo_.blocked_ports[rng_.uniform(topo_.blocked_ports.size())];
    c.reply_to_nat = rng_.chance(0.5);
    conns_.push_back(c);
    advance(conns_.back());
  }

  Conn& pick() { return conns_[rng_.uniform(conns_.size())]; }

  void advance(Conn& c) {
    if (c.next == 8) c.next = 0;  // the tuple is reused: a new connection
    send(c, kCrrFromClient[c.next], kCrr[c.next]);
    ++c.next;
  }

  void send(const Conn& c, bool from_client, uint16_t flags) {
    Packet p;
    if (from_client) {
      p = nvp_packet(*c.client, *c.server, c.eph, c.svc);
    } else {
      p = nvp_packet(*c.server, *c.client, c.svc, c.eph);
      if (c.svc == kNatSvc && c.reply_to_nat) {
        p.key.set_nw_dst(kNatAddr);
        p.key.set_tp_dst(kNatPort);
      }
    }
    p.key.set_tcp_flags(flags);
    inject(p);
  }

  // A FIN or RST on a tuple the tracker has never seen.
  void stray() {
    const uint64_t tenant = 1 + rng_.uniform(2);
    Conn c{&vm(tenant, 0), &vm(tenant, 1 + rng_.uniform(3)),
           static_cast<uint16_t>(1024 + rng_.uniform(30000)),
           rng_.chance(0.5) ? kCommitSvc : kNatSvc};
    const uint16_t flags[] = {kFin, kRst, kFinAck, kRstAck};
    send(c, rng_.chance(0.5), flags[rng_.uniform(4)]);
  }

  void inject(const Packet& p) {
    check(p.key);
    sw_.inject(p, clock_.now());
    sw_.handle_upcalls(clock_.now());
  }

  // Checks every stage of `key`'s trip through the datapath.
  void check(const FlowKey& key) {
    FlowKey stage = key;
    for (unsigned depth = 0; depth <= kMaxRecircDepth; ++depth) {
      XlateResult ref;
      check_stage(stage, &ref);
      if (::testing::Test::HasFatalFailure() || !ref.froze) return;
      // The key the datapath recirculates: this stage's rewrites, the
      // tracker's verdict, and the id naming the frozen state.
      sw_.pipeline().name_frozen(ref);
      ref.actions.apply_set_fields(stage);
      DpActions ignored;
      apply_ct_verdict(sw_.conntrack().preview(stage, ref.actions.ct()),
                       stage, ignored);
      stage.set_recirc_id(ref.actions.recirc_id());
      ++checked_post_ct_;
    }
  }

  // Translates `key` and its variants on the current state, side-effect
  // free; all must agree on actions and mask.
  void check_stage(const FlowKey& key, XlateResult* out) {
    Pipeline& pl = sw_.pipeline();
    const uint64_t now = clock_.now();
    XlateResult& ref = *out;
    ref = pl.translate(key, now, /*side_effects=*/false);
    const FlowMask& mask = ref.megaflow.mask;
    for (size_t v = 0; v < kVariants; ++v) {
      FlowKey var;
      for (size_t i = 0; i < kFlowWords; ++i)
        var.w[i] = (key.w[i] & mask.w[i]) | (rng_.next() & ~mask.w[i]);
      const XlateResult& got = pl.translate(var, now, scratch_, false);
      ASSERT_EQ(got.actions, ref.actions)
          << "packet " << key.to_string() << "\nvariant " << var.to_string()
          << "\nmask " << mask.to_string() << "\nactions "
          << ref.actions.to_string() << " vs " << got.actions.to_string();
      ASSERT_EQ(got.megaflow.mask, mask)
          << "packet " << key.to_string() << "\nvariant " << var.to_string()
          << "\nmask " << mask.to_string() << " vs "
          << got.megaflow.mask.to_string();
    }
    ++checked_;
  }

  Rng rng_;
  Switch sw_{SwitchConfig{}};
  NvpTopology topo_;
  VirtualClock clock_;
  XlateScratch scratch_;
  std::vector<Conn> conns_;
  size_t checked_ = 0;
  size_t checked_post_ct_ = 0;
};

TEST(MegaflowSoundness, StatefulNvpVariantsTranslateAlike) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SoundnessDriver d(seed);
    for (int i = 0; i < 3000 && !::testing::Test::HasFatalFailure(); ++i)
      d.step();
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // The run exercised the tracker and the slow path: connections
    // committed, torn down and NATed, stages translated from many states.
    const ConnTracker::Stats ct = d.sw().conntrack().stats();
    EXPECT_GT(ct.committed, 400u);
    EXPECT_GT(ct.removed, 80u);
    EXPECT_GT(ct.nat_bindings, 40u);
    EXPECT_GT(d.sw().counters().upcalls_handled, 150u);
    EXPECT_GE(d.checked(), 4000u);
    EXPECT_GE(d.checked_post_ct(), 1200u);
  }
}

}  // namespace
}  // namespace ovs
