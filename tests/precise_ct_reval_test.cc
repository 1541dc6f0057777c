// Precise conntrack revalidation (DESIGN.md §15): each flow records the
// connection its translation looked up, the tracker records the connections
// that changed since the last pass, and the kTwoTier fast path skips every
// flow whose connection did not change. Each change source must re-translate
// exactly the flows of the changed connection while other ct flows and
// non-ct flows take kSkipTags; anything the set cannot name (overflow,
// several ct lookups, a restart) falls back to re-translating.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "test_util.h"
#include "util/fault.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

using testutil::tcp_pkt;

// in_port 1 clients, 10.1.1.5 server; the destination port picks the rule.
Packet conn(uint16_t sport, uint16_t dport) {
  return tcp_pkt(1, Ipv4(192, 168, 0, 1), Ipv4(10, 1, 1, 5), sport, dport);
}

constexpr uint16_t kLookup = 7070;  // ct(table=2), zone 0, lookup only
constexpr uint16_t kCommit = 8080;  // ct(commit,table=2): FIN/RST teardown
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
    clock_.advance(kSecond);
  }

  void send(const Packet& p) {
    sw_->inject(p, clock_.now());
    sw_->handle_upcalls(clock_.now());
  }

  const RevalPassStats& pass() {
    clock_.advance(100 * kMillisecond);
    sw_->run_maintenance(clock_.now());
    return sw_->last_reval_pass();
  }

  // Brings the cache up to date with everything that happened so far, and
  // checks that a pass with nothing new re-translates nothing.
  void settle() {
    pass();
    const RevalPassStats& st = pass();
    ASSERT_EQ(st.retranslated, 0u);
    ASSERT_EQ(st.skipped_by_tags, 0u);
  }

  // The actions of the installed flow covering `p` ("" when none does).
  std::string actions_of(const Packet& p) {
    const Datapath& be = sw_->backend();
    for (Datapath::FlowRef f : be.dump())
      if (be.flow_match(f).matches(p.key)) return be.flow_actions(f).to_string();
    return "";
  }

  const FlowRecord* record_of(const Packet& p) {
    const Datapath& be = sw_->backend();
    for (Datapath::FlowRef f : be.dump())
      if (be.flow_match(f).matches(p.key)) return &be.flow_record(f);
    return nullptr;
  }

  // A pass that re-translated exactly `changed` flows and tag-skipped every
  // other live flow.
  void expect_precise(const RevalPassStats& st, uint64_t changed) {
    const uint64_t live = sw_->backend().flow_count();
    EXPECT_EQ(st.examined, live);
    EXPECT_EQ(st.retranslated, changed);
    EXPECT_EQ(st.ct_changed, changed);
    EXPECT_EQ(st.skipped_by_tags, live - changed);
  }

  std::unique_ptr<Switch> sw_;
  VirtualClock clock_;
};

// Two bystanders ride along in every scenario: another ct connection and a
// plain flow. Neither may be re-translated for someone else's change.
const Packet kBystander = conn(1002, kLookup);
const Packet kPlainFlow = conn(1003, kPlain);

TEST_P(PreciseCtRevalTest, CommitRetranslatesOnlyItsConnection) {
  build();
  const Packet a = conn(1001, kLookup);
  for (const Packet& p : {a, kBystander, kPlainFlow}) send(p);
  settle();
  EXPECT_EQ(actions_of(a), "output:2");

  sw_->ct_commit(a.key, 0, clock_.now());
  const RevalPassStats& st = pass();
  expect_precise(st, 1);
  EXPECT_EQ(st.ct_changed_keys, 1u);
  EXPECT_EQ(actions_of(a), "output:3");
  EXPECT_EQ(actions_of(kBystander), "output:2");
  EXPECT_EQ(actions_of(kPlainFlow), "output:4");
}

// A NAT commit creates two entries: the forward one and the reverse one
// keyed on the post-NAT tuple. The forward flow and the reply flow each
// depend on one of them.
TEST_P(PreciseCtRevalTest, NatCommitRetranslatesForwardAndReverse) {
  build();
  const Packet fwd = tcp_pkt(1, Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1),
                             5555, kNat);
  const Packet reply = tcp_pkt(4, Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9),
                               kNat, 40001);
  for (const Packet& p : {fwd, reply, kBystander, kPlainFlow}) send(p);
  settle();
  EXPECT_EQ(actions_of(reply), "output:2");

  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  sw_->ct_commit_nat(fwd.key, nat, 0, clock_.now());
  const RevalPassStats& st = pass();
  expect_precise(st, 2);
  EXPECT_EQ(st.ct_changed_keys, 2u);
  EXPECT_NE(actions_of(fwd).find("output:3"), std::string::npos);
  EXPECT_NE(actions_of(fwd).find(std::to_string(nat.addr)), std::string::npos);
  EXPECT_NE(actions_of(reply).find("output:3"), std::string::npos);
  EXPECT_NE(actions_of(reply).find(std::to_string(Ipv4(10, 0, 0, 5).value())),
            std::string::npos);
}

// FIN and RST from a ct(commit) pipeline tear the connection down during
// the upcall; both of its flows (the opening one and the teardown one)
// re-translate, nothing else does.
TEST_P(PreciseCtRevalTest, TeardownRetranslatesBothFlowsOfTheConnection) {
  build();
  send(kBystander);
  send(kPlainFlow);
  uint16_t sport = 3000;
  for (uint16_t flag : {tcpflags::kFin, tcpflags::kRst}) {
    SCOPED_TRACE(flag == tcpflags::kFin ? "FIN" : "RST");
    const Packet open = conn(++sport, kCommit);
    send(open);  // commits the connection as a side effect
    settle();
    EXPECT_EQ(actions_of(open), "output:3");

    Packet close = open;
    close.key.set_tcp_flags(flag);
    send(close);
    EXPECT_EQ(actions_of(close), "output:3");  // pre-teardown state
    EXPECT_EQ(sw_->conntrack().lookup(open.key), ct_state::kNew);
    const RevalPassStats& st = pass();
    expect_precise(st, 2);
    EXPECT_EQ(actions_of(open), "output:2");
    EXPECT_EQ(actions_of(close), "output:2");
  }
}

// Tearing down a NAT connection removes its reverse entry as well; the
// reply flow depends on that entry alone.
TEST_P(PreciseCtRevalTest, NatPairCascadeRetranslatesTheReplyFlow) {
  build();
  const Packet fwd = tcp_pkt(1, Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1),
                             5555, kNat);
  const Packet reply = tcp_pkt(4, Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9),
                               kNat, 40001);
  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  sw_->ct_commit_nat(fwd.key, nat, 0, clock_.now());
  for (const Packet& p : {fwd, reply, kBystander, kPlainFlow}) send(p);
  settle();
  EXPECT_NE(actions_of(reply).find("output:3"), std::string::npos);

  ASSERT_TRUE(sw_->ct_remove(fwd.key, 0));
  const RevalPassStats& st = pass();
  expect_precise(st, 2);
  EXPECT_EQ(actions_of(fwd), "output:2");
  EXPECT_EQ(actions_of(reply), "output:2");
}

TEST_P(PreciseCtRevalTest, ZoneCapEvictionRetranslatesTheVictim) {
  SwitchConfig cfg;
  cfg.ct_max_per_zone = 2;
  build(cfg);
  const Packet z1 = conn(4001, kZone1), z2 = conn(4002, kZone1);
  sw_->ct_commit(z1.key, 1, clock_.now());
  sw_->ct_commit(z2.key, 1, clock_.now());
  for (const Packet& p : {z1, z2, kBystander, kPlainFlow}) send(p);
  settle();

  sw_->ct_commit(conn(4003, kZone1).key, 1, clock_.now());  // evicts z1
  EXPECT_EQ(sw_->conntrack().stats().evicted_zone_cap, 1u);
  const RevalPassStats& st = pass();
  expect_precise(st, 1);
  EXPECT_EQ(actions_of(z1), "output:2");
  EXPECT_EQ(actions_of(z2), "output:3");
}

// Global-cap eviction under both policies: fair evicts the largest zone's
// oldest entry (z1), unfair the globally oldest (a). Either way only the
// victim's flow re-translates.
TEST_P(PreciseCtRevalTest, GlobalEvictionRetranslatesTheVictim) {
  for (bool fair : {true, false}) {
    SCOPED_TRACE(fair ? "fair" : "unfair");
    SwitchConfig cfg;
    cfg.ct_max_entries = 3;
    cfg.ct_fair_eviction = fair;
    build(cfg);
    const Packet a = conn(1001, kLookup);
    const Packet z1 = conn(4001, kZone1), z2 = conn(4002, kZone1);
    sw_->ct_commit(a.key, 0, clock_.now());
    clock_.advance(kMillisecond);
    sw_->ct_commit(z1.key, 1, clock_.now());
    clock_.advance(kMillisecond);
    sw_->ct_commit(z2.key, 1, clock_.now());
    for (const Packet& p : {a, z1, z2, kPlainFlow}) send(p);
    settle();

    sw_->ct_commit(conn(1009, kLookup).key, 0, clock_.now());
    EXPECT_EQ(sw_->conntrack().stats().evicted_global_cap, 1u);
    const RevalPassStats& st = pass();
    expect_precise(st, 1);
    EXPECT_EQ(actions_of(a), fair ? "output:3" : "output:2");
    EXPECT_EQ(actions_of(z1), fair ? "output:2" : "output:3");
    EXPECT_EQ(actions_of(z2), "output:3");
  }
}

TEST_P(PreciseCtRevalTest, IdleExpiryRetranslatesTheExpiredConnection) {
  SwitchConfig cfg;
  cfg.ct_idle_timeout_ns = 5 * kSecond;
  build(cfg);
  const Packet a = conn(1001, kLookup);
  sw_->ct_commit(a.key, 0, clock_.now());
  clock_.advance(3 * kSecond);
  sw_->ct_commit(kBystander.key, 0, clock_.now());
  for (const Packet& p : {a, kBystander, kPlainFlow}) send(p);
  settle();

  clock_.advance(2 * kSecond);  // past a's timeout, not the bystander's
  const RevalPassStats& st = pass();
  EXPECT_EQ(sw_->counters().ct_expired_idle, 1u);
  expect_precise(st, 1);
  EXPECT_EQ(actions_of(a), "output:2");
  EXPECT_EQ(actions_of(kBystander), "output:3");
}

// More changes than the set holds: it names no connections, so the pass
// re-translates everything, and the next one is precise again.
TEST_P(PreciseCtRevalTest, OverflowedSetGivesAFullPass) {
  build();
  const Packet a = conn(1001, kLookup);
  for (const Packet& p : {a, kBystander, kPlainFlow}) send(p);
  settle();

  for (uint32_t i = 0; i <= ConnTracker::kMaxChangedKeys; ++i)
    sw_->ct_commit(tcp_pkt(3, Ipv4(Ipv4(172, 16, 0, 0).value() + (i >> 8)),
                           Ipv4(10, 9, 9, 9),
                           static_cast<uint16_t>(20000 + (i & 0xff)), 443)
                       .key,
                   0, clock_.now());
  EXPECT_TRUE(sw_->conntrack().changed_overflowed());
  const RevalPassStats& st = pass();
  EXPECT_EQ(st.retranslated, 3u);
  EXPECT_EQ(st.skipped_by_tags, 0u);
  EXPECT_EQ(st.ct_changed, 0u);
  EXPECT_EQ(st.ct_changed_keys, 0u);
  EXPECT_FALSE(sw_->conntrack().changed_overflowed());

  sw_->ct_commit(a.key, 0, clock_.now());
  expect_precise(pass(), 1);
}

// A restart's reconciliation is a full pass, and it leaves the set empty:
// changes recorded while the daemon was down were covered by it.
TEST_P(PreciseCtRevalTest, RestartReconcilesFullyAndClearsTheSet) {
  build();
  const Packet a = conn(1001, kLookup);
  for (const Packet& p : {a, kBystander, kPlainFlow}) send(p);
  settle();

  sw_->crash();
  sw_->ct_commit(kBystander.key, 0, clock_.now());  // while down
  EXPECT_GT(sw_->conntrack().changed_size(), 0u);
  clock_.advance(kSecond);
  ASSERT_TRUE(sw_->restart(clock_.now()));
  EXPECT_EQ(sw_->last_reval_pass().retranslated, 3u);
  EXPECT_EQ(sw_->last_reval_pass().skipped_by_tags, 0u);
  EXPECT_EQ(sw_->conntrack().changed_size(), 0u);
  EXPECT_FALSE(sw_->conntrack().changed_overflowed());
  EXPECT_EQ(actions_of(kBystander), "output:3");
  ASSERT_NE(record_of(a), nullptr);
  EXPECT_EQ(record_of(a)->ct_lookups, 1u);  // adoption refreshed the record

  sw_->ct_commit(a.key, 0, clock_.now());
  expect_precise(pass(), 1);
  EXPECT_EQ(actions_of(a), "output:3");
}

// A stalled pass examines nothing, so it must not drop what the set holds.
TEST_P(PreciseCtRevalTest, StalledPassKeepsTheSet) {
  FaultInjector fault;
  SwitchConfig cfg;
  cfg.fault = &fault;
  build(cfg);
  const Packet a = conn(1001, kLookup);
  for (const Packet& p : {a, kBystander, kPlainFlow}) send(p);
  settle();

  sw_->ct_commit(a.key, 0, clock_.now());
  fault.set_probability(FaultPoint::kRevalidatorStall, 1.0);
  pass();
  fault.set_probability(FaultPoint::kRevalidatorStall, 0.0);
  EXPECT_EQ(sw_->counters().reval_stalls, 1u);
  EXPECT_EQ(sw_->conntrack().changed_size(), 1u);

  expect_precise(pass(), 1);
  EXPECT_EQ(actions_of(a), "output:3");
}

// Zone 1, then zone 2: the flow depends on two connections, so it
// re-translates whichever changes (and, conservatively, on any change).
TEST_P(PreciseCtRevalTest, TwoCtPipelineRetranslatesOnEitherConnection) {
  build();
  const Packet d = conn(2001, kTwoCt);
  for (const Packet& p : {d, kBystander, kPlainFlow}) send(p);
  settle();
  ASSERT_NE(record_of(d), nullptr);
  EXPECT_EQ(record_of(d)->ct_lookups, 2u);

  sw_->ct_commit(d.key, 1, clock_.now());
  expect_precise(pass(), 1);
  EXPECT_EQ(actions_of(d), "output:2");  // zone 2 still decides: new

  sw_->ct_commit(d.key, 2, clock_.now());
  expect_precise(pass(), 1);
  EXPECT_EQ(actions_of(d), "output:3");

  sw_->ct_remove(d.key, 1);
  expect_precise(pass(), 1);

  sw_->ct_commit(conn(2999, kLookup).key, 0, clock_.now());  // unrelated
  expect_precise(pass(), 1);
}

// ct(nat) rewrites the source before the zone-2 lookup: the recorded key is
// the rewritten tuple's, and committing that tuple re-translates the flow.
TEST_P(PreciseCtRevalTest, NatRewriteThenSecondCtRecordsRewrittenTuple) {
  build();
  const Packet g = conn(2002, kNatCt);
  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 77).value(), 41000};
  sw_->ct_commit_nat(g.key, nat, 0, clock_.now());
  FlowKey rewritten = g.key;
  rewritten.set_nw_src(Ipv4(192, 0, 2, 77));
  rewritten.set_tp_src(41000);

  const XlateResult xr =
      sw_->pipeline().translate(g.key, clock_.now(), /*side_effects=*/false);
  EXPECT_EQ(xr.ct_lookups, 2u);
  EXPECT_EQ(xr.ct_key, ConnTracker::ref(rewritten, 2).dep());
  EXPECT_NE(xr.ct_key, ConnTracker::ref(g.key, 2).dep());

  for (const Packet& p : {g, kBystander, kPlainFlow}) send(p);
  settle();
  ASSERT_NE(record_of(g), nullptr);
  EXPECT_EQ(record_of(g)->ct_key, ConnTracker::ref(rewritten, 2).dep());
  EXPECT_NE(actions_of(g).find("output:2"), std::string::npos);

  sw_->ct_commit(rewritten, 2, clock_.now());
  expect_precise(pass(), 1);
  EXPECT_NE(actions_of(g).find("output:3"), std::string::npos);
}

// The plan phase splits across threads; every partition reads the same
// sealed set, and the outcome matches the single-threaded one.
TEST_P(PreciseCtRevalTest, ParallelPlanThreadsSharePreciseSet) {
  SwitchConfig cfg;
  cfg.revalidator_threads = 4;
  build(cfg);
  constexpr uint16_t kConns = 512;
  for (uint16_t i = 0; i < kConns; ++i) send(conn(10000 + i, kLookup));
  send(kPlainFlow);
  settle();

  for (uint16_t i = 0; i < kConns; i += 5)
    sw_->ct_commit(conn(10000 + i, kLookup).key, 0, clock_.now());
  const RevalPassStats& st = pass();
  EXPECT_EQ(st.threads_used, 4u);
  expect_precise(st, (kConns + 4) / 5);
  EXPECT_EQ(st.ct_changed_keys, (kConns + 4) / 5);
  for (uint16_t i = 0; i < 10; ++i)
    EXPECT_EQ(actions_of(conn(10000 + i, kLookup)),
              i % 5 == 0 ? "output:3" : "output:2");
  EXPECT_EQ(sw_->counters().reval_ct_changed, (kConns + 4) / 5);
  EXPECT_EQ(sw_->counters().ct_changed_keys, (kConns + 4) / 5);
}

INSTANTIATE_TEST_SUITE_P(Backends, PreciseCtRevalTest, ::testing::Values(0, 4),
                         [](const ::testing::TestParamInfo<size_t>& p) {
                           return "workers" + std::to_string(p.param);
                         });

// The tracker side on its own: every change source lands in the set, a
// re-commit does not, and sealing sorts and deduplicates.
TEST(PreciseCtChangedSet, RecordsEveryChangeSource) {
  ConnTrackerConfig cfg;
  cfg.max_per_zone = 2;
  ConnTracker ct(cfg);
  const FlowKey a = conn(1, kLookup).key, b = conn(2, kLookup).key,
                c = conn(3, kLookup).key;
  ct.commit(a);
  ct.commit(a);  // refresh: the answer did not change
  EXPECT_EQ(ct.changed_size(), 1u);
  ct.commit(b);
  ct.commit(c);  // evicts a
  ct.remove(b);
  const std::vector<uint32_t>* set = ct.seal_changed();
  ASSERT_NE(set, nullptr);
  const std::vector<uint32_t> want = [&] {
    std::vector<uint32_t> v = {ConnTracker::ref(a, 0).dep(),
                               ConnTracker::ref(b, 0).dep(),
                               ConnTracker::ref(c, 0).dep()};
    std::sort(v.begin(), v.end());
    return v;
  }();
  EXPECT_EQ(*set, want);

  ct.clear_changed();
  ct.flush();
  EXPECT_TRUE(ct.changed_overflowed());
  EXPECT_EQ(ct.seal_changed(), nullptr);
  ct.clear_changed();
  EXPECT_FALSE(ct.changed_overflowed());
}

// Both directions of a connection share one dependency key, and the zone
// is part of it.
TEST(PreciseCtChangedSet, DependencyKeyIsDirectionFreeAndZoned) {
  const FlowKey fwd = conn(1, kLookup).key;
  FlowKey rev = fwd;
  rev.set_nw_src(fwd.nw_dst());
  rev.set_nw_dst(fwd.nw_src());
  rev.set_tp_src(fwd.tp_dst());
  rev.set_tp_dst(fwd.tp_src());
  EXPECT_EQ(ConnTracker::ref(fwd, 0).dep(), ConnTracker::ref(rev, 0).dep());
  EXPECT_NE(ConnTracker::ref(fwd, 0).dep(), ConnTracker::ref(fwd, 1).dep());
}

}  // namespace
}  // namespace ovs
