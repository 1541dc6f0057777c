// Precise conntrack re-evaluation (DESIGN.md §15): the datapath runs ct on
// every packet and recirculates, and no megaflow depends on a connection.
// Each change source (a commit, a NAT binding, a teardown, an eviction, an
// idle expiry) must therefore change the fate of exactly its own
// connection's next packet, with no revalidation pass in between, while
// other ct connections and plain flows keep theirs; and the pass that
// follows re-translates no flow for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "test_util.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

using testutil::tcp_pkt;

// in_port 1 clients, 10.1.1.5 server; the destination port picks the rule.
Packet conn(uint16_t sport, uint16_t dport) {
  return tcp_pkt(1, Ipv4(192, 168, 0, 1), Ipv4(10, 1, 1, 5), sport, dport);
}

// The server's reply on the same connection.
Packet reply_of(const Packet& p) {
  return tcp_pkt(4, p.key.nw_dst(), p.key.nw_src(), p.key.tp_dst(),
                 p.key.tp_src());
}

constexpr uint16_t kLookup = 7070;  // ct(table=2), zone 0, lookup only
constexpr uint16_t kCommit = 8080;  // ct(commit,table=2), both directions
constexpr uint16_t kNat = 6060;     // ct(nat,table=2), both directions
constexpr uint16_t kZone1 = 9090;   // ct(zone=1,table=2)
constexpr uint16_t kTwoCt = 5050;   // ct zone 1, then ct zone 2
constexpr uint16_t kNatCt = 6161;   // ct(nat) zone 0, then ct zone 2
constexpr uint16_t kPlain = 80;     // no conntrack

class PreciseCtRevalTest : public ::testing::TestWithParam<size_t> {
 protected:
  void build(SwitchConfig cfg = {}) {
    cfg.datapath_workers = GetParam();
    sw_ = std::make_unique<Switch>(cfg);
    for (uint32_t p = 1; p <= 4; ++p) sw_->add_port(p);
    for (const char* rule : {
             "priority=35, tcp, tp_dst=7070, actions=ct(table=2)",
             "priority=35, tcp, tp_dst=8080, actions=ct(commit,table=2)",
             "priority=35, tcp, tp_src=8080, actions=ct(commit,table=2)",
             "priority=35, tcp, tp_dst=6060, actions=ct(nat,table=2)",
             "priority=35, tcp, tp_src=6060, actions=ct(nat,table=2)",
             "priority=35, tcp, tp_dst=9090, actions=ct(zone=1,table=2)",
             "priority=35, tcp, tp_dst=5050, actions=ct(zone=1,table=1)",
             "priority=35, tcp, tp_dst=6161, actions=ct(nat,table=1)",
             "priority=20, tcp, tp_dst=80, actions=output:4",
             "table=1, priority=30, tcp, actions=ct(zone=2,table=2)",
             "table=2, priority=30, ct_state=1, actions=output:2",
             "table=2, priority=30, ct_state=2, actions=output:3",
             "table=2, priority=30, ct_state=6, actions=output:3",
         })
      ASSERT_EQ("", sw_->add_flow(rule, 0));
    sw_->set_trace_hook([this](const Packet&, const DpActions& a,
                               Datapath::Path) {
      traces_.push_back(a.to_string());
    });
    clock_.advance(kSecond);
  }

  // The composed fate the switch gives `p` now: the datapath's, or the
  // upcall handler's when a stage misses. Exactly one per packet.
  std::string fate(const Packet& p) {
    traces_.clear();
    sw_->inject(p, clock_.now());
    sw_->handle_upcalls(clock_.now());
    EXPECT_EQ(traces_.size(), 1u);
    return traces_.empty() ? "" : traces_.back();
  }

  const RevalPassStats& pass() {
    clock_.advance(100 * kMillisecond);
    sw_->run_maintenance(clock_.now());
    return sw_->last_reval_pass();
  }

  // Brings the cache up to date with everything that happened so far.
  void settle() {
    pass();
    pass();
  }

  // A pass after a conntrack change: it examines every live flow and
  // re-translates none, since no flow depends on a connection.
  void expect_untouched(const RevalPassStats& st) {
    EXPECT_EQ(st.examined, sw_->backend().flow_count());
    EXPECT_EQ(st.retranslated, 0u);
  }

  std::unique_ptr<Switch> sw_;
  VirtualClock clock_;
  std::vector<std::string> traces_;
};

// Two bystanders ride along in every scenario: another ct connection and a
// plain flow. Neither may change fate for someone else's change.
const Packet kBystander = conn(1002, kLookup);
const Packet kPlainFlow = conn(1003, kPlain);

TEST_P(PreciseCtRevalTest, CommitRetranslatesOnlyItsConnection) {
  build();
  const Packet a = conn(1001, kLookup);
  for (const Packet& p : {a, kBystander, kPlainFlow}) fate(p);
  settle();
  EXPECT_EQ(fate(a), "output:2");
  const size_t flows = sw_->backend().flow_count();

  sw_->ct_commit(a.key, 0, clock_.now());
  EXPECT_EQ(fate(a), "output:3");  // no pass in between
  EXPECT_EQ(fate(kBystander), "output:2");
  EXPECT_EQ(fate(kPlainFlow), "output:4");
  // The established stage a's commit set up serves every connection.
  EXPECT_EQ(sw_->backend().flow_count(), flows + 1);
  sw_->ct_commit(kBystander.key, 0, clock_.now());
  const uint64_t setups = sw_->counters().flow_setups;
  EXPECT_EQ(fate(kBystander), "output:3");
  EXPECT_EQ(sw_->counters().flow_setups, setups);
  expect_untouched(pass());
}

// A NAT commit creates two entries: the forward one and the reverse one
// keyed on the post-NAT tuple. The forward packet takes the rewrite and the
// reply the inverse one, each established.
TEST_P(PreciseCtRevalTest, NatCommitRetranslatesForwardAndReverse) {
  build();
  const Packet fwd = tcp_pkt(1, Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1),
                             5555, kNat);
  const Packet reply = tcp_pkt(4, Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9),
                               kNat, 40001);
  for (const Packet& p : {fwd, reply, kBystander, kPlainFlow}) fate(p);
  settle();
  EXPECT_EQ(fate(fwd), "output:2");
  EXPECT_EQ(fate(reply), "output:2");

  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  sw_->ct_commit_nat(fwd.key, nat, 0, clock_.now());
  const std::string f = fate(fwd);
  EXPECT_NE(f.find("output:3"), std::string::npos) << f;
  EXPECT_NE(f.find(std::to_string(nat.addr)), std::string::npos) << f;
  const std::string r = fate(reply);
  EXPECT_NE(r.find("output:3"), std::string::npos) << r;
  EXPECT_NE(r.find(std::to_string(Ipv4(10, 0, 0, 5).value())),
            std::string::npos)
      << r;
  EXPECT_EQ(fate(kBystander), "output:2");
  EXPECT_EQ(fate(kPlainFlow), "output:4");
  expect_untouched(pass());
}

// A ct(commit) pipeline tears the connection down in the datapath: at once
// on a RST, and on the half-close after both FINs and the last ACK. Both
// the opening packets and the closing ones read new again afterwards,
// nothing else changes, and no upcall or pass is needed for it.
TEST_P(PreciseCtRevalTest, TeardownRetranslatesBothFlowsOfTheConnection) {
  build();
  fate(kBystander);
  fate(kPlainFlow);
  uint16_t sport = 3000;
  for (bool rst : {true, false}) {
    SCOPED_TRACE(rst ? "RST" : "FIN");
    const Packet open = conn(++sport, kCommit);
    EXPECT_EQ(fate(open), "output:2");  // commits the connection
    EXPECT_EQ(fate(open), "output:3");
    const Packet back = reply_of(open);
    EXPECT_EQ(fate(back), "output:3");  // established reply
    settle();
    const uint64_t setups = sw_->counters().flow_setups;

    if (rst) {
      Packet close = open;
      close.key.set_tcp_flags(tcpflags::kRst);
      EXPECT_EQ(fate(close), "output:3");  // pre-teardown state
    } else {
      Packet fin = open, fin_back = back, last_ack = open;
      fin.key.set_tcp_flags(tcpflags::kFin);
      fin_back.key.set_tcp_flags(tcpflags::kFin);
      EXPECT_EQ(fate(fin), "output:3");
      EXPECT_EQ(sw_->conntrack().lookup(open.key),
                ct_state::kEstablished);  // half-closed: still there
      EXPECT_EQ(fate(fin_back), "output:3");
      EXPECT_EQ(fate(last_ack), "output:3");  // closes it
    }
    EXPECT_EQ(sw_->conntrack().lookup(open.key), ct_state::kNew);
    EXPECT_EQ(sw_->conntrack().size(), 0u);
    EXPECT_EQ(sw_->counters().flow_setups, setups)
        << "no stage consults the TCP flags: the teardown needs no upcall";

    Packet close_again = open;
    close_again.key.set_tcp_flags(tcpflags::kRst);
    EXPECT_EQ(fate(close_again), "output:2");  // new, and torn down again
    EXPECT_EQ(fate(open), "output:2");         // new: recommits
    EXPECT_EQ(fate(open), "output:3");
    EXPECT_EQ(fate(kBystander), "output:2");
    EXPECT_EQ(fate(kPlainFlow), "output:4");
    expect_untouched(pass());
    fate(close_again);  // leaves the tracker empty for the next round
  }
}

// Tearing down a NAT connection removes its reverse entry as well: the
// reply loses its un-NAT and reads new.
TEST_P(PreciseCtRevalTest, NatPairCascadeRetranslatesTheReplyFlow) {
  build();
  const Packet fwd = tcp_pkt(1, Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1),
                             5555, kNat);
  const Packet reply = tcp_pkt(4, Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9),
                               kNat, 40001);
  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  sw_->ct_commit_nat(fwd.key, nat, 0, clock_.now());
  for (const Packet& p : {fwd, reply, kBystander, kPlainFlow}) fate(p);
  settle();
  EXPECT_NE(fate(reply).find("output:3"), std::string::npos);

  ASSERT_TRUE(sw_->ct_remove(fwd.key, 0));
  EXPECT_EQ(sw_->conntrack().size(), 0u);
  EXPECT_EQ(fate(fwd), "output:2");
  EXPECT_EQ(fate(reply), "output:2");
  EXPECT_EQ(fate(kBystander), "output:2");
  expect_untouched(pass());
}

TEST_P(PreciseCtRevalTest, ZoneCapEvictionRetranslatesTheVictim) {
  SwitchConfig cfg;
  cfg.datapath.conntrack.max_per_zone = 2;
  build(cfg);
  const Packet z1 = conn(4001, kZone1), z2 = conn(4002, kZone1);
  sw_->ct_commit(z1.key, 1, clock_.now());
  sw_->ct_commit(z2.key, 1, clock_.now());
  for (const Packet& p : {z1, z2, kBystander, kPlainFlow}) fate(p);
  settle();
  EXPECT_EQ(fate(z1), "output:3");

  sw_->ct_commit(conn(4003, kZone1).key, 1, clock_.now());  // evicts z1
  EXPECT_EQ(sw_->conntrack().stats().evicted_zone_cap, 1u);
  EXPECT_EQ(fate(z1), "output:2");
  EXPECT_EQ(fate(z2), "output:3");
  EXPECT_EQ(fate(kBystander), "output:2");
  expect_untouched(pass());
}

// Global-cap eviction under both policies: fair evicts the largest zone's
// oldest entry (z1), unfair the globally oldest (a). Either way only the
// victim's fate changes.
TEST_P(PreciseCtRevalTest, GlobalEvictionRetranslatesTheVictim) {
  for (bool fair : {true, false}) {
    SCOPED_TRACE(fair ? "fair" : "unfair");
    SwitchConfig cfg;
    cfg.datapath.conntrack.max_entries = 3;
    cfg.datapath.conntrack.fair_eviction = fair;
    build(cfg);
    const Packet a = conn(1001, kLookup);
    const Packet z1 = conn(4001, kZone1), z2 = conn(4002, kZone1);
    sw_->ct_commit(a.key, 0, clock_.now());
    clock_.advance(kMillisecond);
    sw_->ct_commit(z1.key, 1, clock_.now());
    clock_.advance(kMillisecond);
    sw_->ct_commit(z2.key, 1, clock_.now());
    for (const Packet& p : {a, z1, z2, kPlainFlow}) fate(p);
    settle();

    sw_->ct_commit(conn(1009, kLookup).key, 0, clock_.now());
    EXPECT_EQ(sw_->conntrack().stats().evicted_global_cap, 1u);
    EXPECT_EQ(fate(a), fair ? "output:3" : "output:2");
    EXPECT_EQ(fate(z1), fair ? "output:2" : "output:3");
    EXPECT_EQ(fate(z2), "output:3");
    EXPECT_EQ(fate(kPlainFlow), "output:4");
    expect_untouched(pass());
  }
}

TEST_P(PreciseCtRevalTest, IdleExpiryRetranslatesTheExpiredConnection) {
  SwitchConfig cfg;
  cfg.datapath.conntrack.idle_timeout_ns = 5 * kSecond;
  build(cfg);
  const Packet a = conn(1001, kLookup);
  sw_->ct_commit(a.key, 0, clock_.now());
  clock_.advance(3 * kSecond);
  sw_->ct_commit(kBystander.key, 0, clock_.now());
  for (const Packet& p : {a, kBystander, kPlainFlow}) fate(p);
  settle();
  EXPECT_EQ(fate(a), "output:3");

  clock_.advance(2 * kSecond);  // past a's timeout, not the bystander's
  const RevalPassStats& st = pass();  // the maintenance round expires a
  EXPECT_EQ(sw_->counters().ct_expired_idle, 1u);
  expect_untouched(st);
  EXPECT_EQ(fate(a), "output:2");
  EXPECT_EQ(fate(kBystander), "output:3");
  EXPECT_EQ(fate(kPlainFlow), "output:4");
}

// A restart's reconciliation examines every flow. The connections are
// datapath state and survive it, changes made while the daemon was down
// included; the frozen states do not, so the table starts over with the
// ids the rebuilt tables' ct actions name, none of them a dead daemon's,
// and the post-ct stages are set up again.
TEST_P(PreciseCtRevalTest, RestartReconcilesFullyAndClearsTheSet) {
  build();
  const Packet a = conn(1001, kLookup);
  for (const Packet& p : {a, kBystander, kPlainFlow}) fate(p);
  settle();
  const size_t flows = sw_->backend().flow_count();
  uint32_t old_id = 0;
  for (Datapath::FlowRef f : sw_->backend().dump())
    old_id = std::max(old_id, sw_->backend().flow_full_key(f).recirc_id());
  ASSERT_NE(old_id, 0u);

  sw_->crash();
  sw_->ct_commit(kBystander.key, 0, clock_.now());  // while down
  clock_.advance(kSecond);
  ASSERT_TRUE(sw_->restart(clock_.now()));
  EXPECT_EQ(sw_->last_reval_pass().examined, flows);
  // Two frozen states: resume in table 1 and resume in table 2.
  EXPECT_EQ(sw_->pipeline().recirc().size(), 2u);
  for (uint32_t id = 1; id <= old_id; ++id)
    EXPECT_EQ(sw_->pipeline().recirc().state(id), nullptr) << id;
  EXPECT_GT(sw_->counters().reval_deleted_stale, 0u);  // post-ct stages
  EXPECT_EQ(fate(kBystander), "output:3");
  EXPECT_EQ(fate(a), "output:2");
  EXPECT_EQ(fate(kPlainFlow), "output:4");
  EXPECT_TRUE(sw_->self_check().ok());

  sw_->ct_commit(a.key, 0, clock_.now());
  EXPECT_EQ(fate(a), "output:3");
  expect_untouched(pass());
}

// Zone 1, then zone 2: the packet's fate follows the zone-2 connection,
// whichever of the two changes.
TEST_P(PreciseCtRevalTest, TwoCtPipelineRetranslatesOnEitherConnection) {
  build();
  const Packet d = conn(2001, kTwoCt);
  for (const Packet& p : {d, kBystander, kPlainFlow}) fate(p);
  settle();
  EXPECT_EQ(fate(d), "output:2");

  sw_->ct_commit(d.key, 1, clock_.now());
  EXPECT_EQ(fate(d), "output:2");  // zone 2 still decides: new
  sw_->ct_commit(d.key, 2, clock_.now());
  EXPECT_EQ(fate(d), "output:3");
  sw_->ct_remove(d.key, 1);
  EXPECT_EQ(fate(d), "output:3");
  sw_->ct_remove(d.key, 2);
  EXPECT_EQ(fate(d), "output:2");

  sw_->ct_commit(conn(2999, kLookup).key, 0, clock_.now());  // unrelated
  EXPECT_EQ(fate(d), "output:2");
  EXPECT_EQ(fate(kBystander), "output:2");
  expect_untouched(pass());
}

// ct(nat) rewrites the source before the zone-2 ct: that ct looks up the
// rewritten tuple, so committing the rewritten tuple changes the fate and
// committing the original one does not.
TEST_P(PreciseCtRevalTest, NatRewriteThenSecondCtRecordsRewrittenTuple) {
  build();
  const Packet g = conn(2002, kNatCt);
  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 77).value(), 41000};
  sw_->ct_commit_nat(g.key, nat, 0, clock_.now());
  FlowKey rewritten = g.key;
  rewritten.set_nw_src(Ipv4(192, 0, 2, 77));
  rewritten.set_tp_src(41000);

  for (const Packet& p : {g, kBystander, kPlainFlow}) fate(p);
  settle();
  const std::string before = fate(g);
  EXPECT_NE(before.find("output:2"), std::string::npos) << before;
  EXPECT_NE(before.find(std::to_string(nat.addr)), std::string::npos)
      << before;

  sw_->ct_commit(g.key, 2, clock_.now());  // the pre-NAT tuple: no effect
  EXPECT_EQ(fate(g), before);
  sw_->ct_commit(rewritten, 2, clock_.now());
  const std::string after = fate(g);
  EXPECT_NE(after.find("output:3"), std::string::npos) << after;
  EXPECT_NE(after.find(std::to_string(nat.addr)), std::string::npos) << after;
  EXPECT_EQ(fate(kBystander), "output:2");
  expect_untouched(pass());
}

INSTANTIATE_TEST_SUITE_P(Backends, PreciseCtRevalTest, ::testing::Values(0, 4),
                         [](const ::testing::TestParamInfo<size_t>& p) {
                           return "workers" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace ovs
