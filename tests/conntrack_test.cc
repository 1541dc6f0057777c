// Tests for the datapath connection tracker (§8.1, DESIGN.md §15).
#include "datapath/conntrack.h"

#include <gtest/gtest.h>

namespace ovs {
namespace {

FlowKey flow(Ipv4 src, Ipv4 dst, uint16_t sport, uint16_t dport,
             uint8_t proto = ipproto::kTcp) {
  FlowKey k;
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(proto);
  k.set_nw_src(src);
  k.set_nw_dst(dst);
  k.set_tp_src(sport);
  k.set_tp_dst(dport);
  return k;
}

TEST(ConnTrackerTest, NewUntilCommitted) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1234, 80);
  EXPECT_EQ(ct.lookup(k), ct_state::kNew);
  ct.commit(k);
  EXPECT_EQ(ct.size(), 1u);
  EXPECT_TRUE(ct.lookup(k) & ct_state::kEstablished);
}

TEST(ConnTrackerTest, ReplyDirectionIsEstablished) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1234, 80);
  FlowKey rev = flow(Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 1), 80, 1234);
  ct.commit(fwd);
  EXPECT_TRUE(ct.lookup(rev) & ct_state::kEstablished);
  // Exactly one of the two directions carries the reply bit.
  const bool fwd_reply = (ct.lookup(fwd) & ct_state::kReply) != 0;
  const bool rev_reply = (ct.lookup(rev) & ct_state::kReply) != 0;
  EXPECT_NE(fwd_reply, rev_reply);
}

TEST(ConnTrackerTest, DistinctConnectionsIndependent) {
  ConnTracker ct;
  FlowKey a = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1234, 80);
  FlowKey b = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1235, 80);
  ct.commit(a);
  EXPECT_TRUE(ct.lookup(a) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(b), ct_state::kNew);  // different source port
}

TEST(ConnTrackerTest, ProtocolDistinguishes) {
  ConnTracker ct;
  FlowKey t = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 53, 53, ipproto::kTcp);
  FlowKey u = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 53, 53, ipproto::kUdp);
  ct.commit(t);
  EXPECT_TRUE(ct.lookup(t) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(u), ct_state::kNew);
}

TEST(ConnTrackerTest, CommitIsIdempotent) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  FlowKey rev = flow(Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 2, 1);
  ct.commit(k);
  ct.commit(k);
  ct.commit(rev);  // same bidirectional connection
  EXPECT_EQ(ct.size(), 1u);
}

TEST(ConnTrackerTest, RemoveTearsDown) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k);
  EXPECT_TRUE(ct.remove(k));
  EXPECT_EQ(ct.lookup(k), ct_state::kNew);
  EXPECT_FALSE(ct.remove(k));
}

// --- Direction normalization edge cases -----------------------------------

// Regression: a fully symmetric 5-tuple (src==dst addr AND sport==dport) has
// no wire-decidable reply direction. The old canonical-order rule made both
// directions compare equal and stamped kReply on a packet identical to the
// committing one. Now such connections carry kSymmetric and never kReply.
TEST(ConnTrackerTest, SelfConnectionIsSymmetricNeverReply) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(10, 0, 0, 7), Ipv4(10, 0, 0, 7), 9999, 9999);
  ct.commit(k);
  const uint8_t st = ct.lookup(k);
  EXPECT_TRUE(st & ct_state::kEstablished);
  EXPECT_TRUE(st & ct_state::kSymmetric);
  EXPECT_FALSE(st & ct_state::kReply);
}

// Same addresses, different ports: the port pair alone decides direction and
// the reply bit still lands on exactly one side.
TEST(ConnTrackerTest, SameAddressPortTieBreak) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 7), Ipv4(10, 0, 0, 7), 4000, 80);
  FlowKey rev = flow(Ipv4(10, 0, 0, 7), Ipv4(10, 0, 0, 7), 80, 4000);
  ct.commit(fwd);
  EXPECT_EQ(ct.size(), 1u);
  const uint8_t f = ct.lookup(fwd), r = ct.lookup(rev);
  EXPECT_TRUE(f & ct_state::kEstablished);
  EXPECT_TRUE(r & ct_state::kEstablished);
  EXPECT_FALSE(f & ct_state::kSymmetric);
  EXPECT_NE((f & ct_state::kReply) != 0, (r & ct_state::kReply) != 0);
  // The committing direction is the one WITHOUT the reply bit.
  EXPECT_FALSE(f & ct_state::kReply);
}

// Mirrored address/port pairs ((a,p1)->(b,p2) vs (b,p1)->(a,p2)) are
// DIFFERENT connections: normalization sorts endpoints, not fields.
TEST(ConnTrackerTest, MirroredEndpointsAreDistinct) {
  ConnTracker ct;
  FlowKey a = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 10, 20);
  FlowKey b = flow(Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 10, 20);
  ct.commit(a);
  EXPECT_EQ(ct.lookup(b), ct_state::kNew);
  ct.commit(b);
  EXPECT_EQ(ct.size(), 2u);
}

// --- Idempotence / generation ---------------------------------------------

// Re-committing an existing connection (either direction) must not bump the
// generation: revalidation treats generation movement as table dirtiness, so
// a refresh-only commit must not force a revalidation pass.
TEST(ConnTrackerTest, RecommitLeavesGenerationUnchanged) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  FlowKey rev = flow(Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 2, 1);
  EXPECT_TRUE(ct.commit(k));
  const uint64_t gen = ct.generation();
  EXPECT_FALSE(ct.commit(k));
  EXPECT_FALSE(ct.commit(rev));
  EXPECT_EQ(ct.generation(), gen);
  EXPECT_EQ(ct.stats().refreshed, 2u);
  EXPECT_TRUE(ct.remove(k));
  EXPECT_GT(ct.generation(), gen);
}

TEST(ConnTrackerTest, RemoveNonexistentIsNoOp) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  const uint64_t gen = ct.generation();
  EXPECT_FALSE(ct.remove(k));
  EXPECT_EQ(ct.generation(), gen);
  EXPECT_EQ(ct.stats().removed, 0u);
}

// --- Zones -----------------------------------------------------------------

TEST(ConnTrackerTest, ZonesIsolateConnections) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, /*zone=*/1);
  EXPECT_TRUE(ct.lookup(k, 1) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(k, 0), ct_state::kNew);
  EXPECT_EQ(ct.lookup(k, 2), ct_state::kNew);
  EXPECT_EQ(ct.zone_size(1), 1u);
  EXPECT_EQ(ct.zone_size(0), 0u);
  // Removing in the wrong zone touches nothing.
  EXPECT_FALSE(ct.remove(k, 0));
  EXPECT_TRUE(ct.remove(k, 1));
}

// --- Idle expiry -----------------------------------------------------------

// The expiry predicate is last_seen + timeout <= now: an entry is gone at
// EXACTLY the timeout boundary, alive one nanosecond before it.
TEST(ConnTrackerTest, ExpiryBoundaryIsInclusive) {
  ConnTrackerConfig cfg;
  cfg.idle_timeout_ns = 1000;
  ConnTracker ct(cfg);
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, 0, /*now_ns=*/5000);
  EXPECT_FALSE(ct.has_expirable(5999));
  EXPECT_EQ(ct.expire_idle(5999), 0u);
  EXPECT_EQ(ct.size(), 1u);
  EXPECT_TRUE(ct.has_expirable(6000));
  EXPECT_EQ(ct.expire_idle(6000), 1u);
  EXPECT_EQ(ct.lookup(k), ct_state::kNew);
  EXPECT_EQ(ct.stats().expired_idle, 1u);
}

// Re-commit refreshes last-seen; lookups never do. The tracker's contents
// must be a pure function of the mutation sequence (the oracle contract).
TEST(ConnTrackerTest, LookupNeverRefreshesButCommitDoes) {
  ConnTrackerConfig cfg;
  cfg.idle_timeout_ns = 1000;
  ConnTracker ct(cfg);
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, 0, 0);
  // Lookups between commit and expiry deadline change nothing.
  for (int i = 0; i < 8; ++i) ct.lookup(k);
  ct.commit(k, 0, 900);  // refresh: deadline moves to 1900
  EXPECT_EQ(ct.expire_idle(1000), 0u);
  EXPECT_EQ(ct.expire_idle(1899), 0u);
  EXPECT_EQ(ct.expire_idle(1900), 1u);
}

TEST(ConnTrackerTest, ZeroTimeoutNeverExpires) {
  ConnTracker ct;  // idle_timeout_ns = 0
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, 0, 1);
  EXPECT_FALSE(ct.has_expirable(~uint64_t{0}));
  EXPECT_EQ(ct.expire_idle(~uint64_t{0}), 0u);
  EXPECT_EQ(ct.size(), 1u);
}

// --- Capacity / eviction ---------------------------------------------------

FlowKey conn_n(uint32_t n, uint16_t dport = 80) {
  return flow(Ipv4(10, 0, (n >> 8) & 0xff, n & 0xff), Ipv4(192, 168, 0, 1),
              static_cast<uint16_t>(1024 + n), dport);
}

TEST(ConnTrackerTest, ZoneCapEvictsOwnZoneLru) {
  ConnTrackerConfig cfg;
  cfg.max_per_zone = 2;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 1, 100);
  ct.commit(conn_n(2), 1, 200);
  ct.commit(conn_n(3), 2, 50);  // other zone: not eligible
  ct.commit(conn_n(4), 1, 300);  // zone 1 at cap: evicts conn 1 (its LRU)
  EXPECT_EQ(ct.lookup(conn_n(1), 1), ct_state::kNew);
  EXPECT_TRUE(ct.lookup(conn_n(2), 1) & ct_state::kEstablished);
  EXPECT_TRUE(ct.lookup(conn_n(3), 2) & ct_state::kEstablished);
  EXPECT_TRUE(ct.lookup(conn_n(4), 1) & ct_state::kEstablished);
  EXPECT_EQ(ct.stats().evicted_zone_cap, 1u);
  EXPECT_EQ(ct.stats().evicted_global_cap, 0u);
}

// Fair global eviction: the LARGEST zone pays, so a churning zone cannot
// displace a quiet zone's connections.
TEST(ConnTrackerTest, FairGlobalEvictionChargesLargestZone) {
  ConnTrackerConfig cfg;
  cfg.max_entries = 4;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), /*zone=*/7, 10);  // quiet victim zone, oldest overall
  ct.commit(conn_n(2), 1, 20);
  ct.commit(conn_n(3), 1, 30);
  ct.commit(conn_n(4), 1, 40);
  ct.commit(conn_n(5), 1, 50);  // global cap: zone 1 is largest -> its LRU
  EXPECT_EQ(ct.size(), 4u);
  EXPECT_TRUE(ct.lookup(conn_n(1), 7) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(conn_n(2), 1), ct_state::kNew);
  EXPECT_EQ(ct.stats().evicted_global_cap, 1u);
}

TEST(ConnTrackerTest, UnfairGlobalEvictionChargesGlobalLru) {
  ConnTrackerConfig cfg;
  cfg.max_entries = 4;
  cfg.fair_eviction = false;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 7, 10);  // globally oldest: pays under the ablation
  ct.commit(conn_n(2), 1, 20);
  ct.commit(conn_n(3), 1, 30);
  ct.commit(conn_n(4), 1, 40);
  ct.commit(conn_n(5), 1, 50);
  EXPECT_EQ(ct.lookup(conn_n(1), 7), ct_state::kNew);
  EXPECT_TRUE(ct.lookup(conn_n(2), 1) & ct_state::kEstablished);
}

// A refresh moves the entry to the back of its zone's LRU list.
TEST(ConnTrackerTest, RefreshProtectsFromEviction) {
  ConnTrackerConfig cfg;
  cfg.max_entries = 3;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 0, 10);
  ct.commit(conn_n(2), 0, 20);
  ct.commit(conn_n(3), 0, 30);
  ct.commit(conn_n(1), 0, 40);  // refresh: conn 2 becomes LRU
  ct.commit(conn_n(4), 0, 50);
  EXPECT_TRUE(ct.lookup(conn_n(1)) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(conn_n(2)), ct_state::kNew);
}

// --- NAT -------------------------------------------------------------------

TEST(ConnTrackerTest, SnatForwardAndReverseRewrites) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  EXPECT_EQ(ct.size(), 2u);  // primary + reverse entry
  EXPECT_EQ(ct.stats().nat_bindings, 1u);

  // Forward packets rewrite their SOURCE to the NAT binding.
  auto f = ct.nat_lookup(fwd);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->to_src);
  EXPECT_EQ(f->addr, Ipv4(192, 0, 2, 9).value());
  EXPECT_EQ(f->port, 40001);

  // Replies arrive addressed to the post-NAT tuple and rewrite their
  // DESTINATION back to the original source.
  FlowKey reply = flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  EXPECT_TRUE(ct.lookup(reply) & ct_state::kEstablished);
  auto r = ct.nat_lookup(reply);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->to_src);
  EXPECT_EQ(r->addr, Ipv4(10, 0, 0, 5).value());
  EXPECT_EQ(r->port, 5555);
}

TEST(ConnTrackerTest, DnatReverseRewritesSource) {
  ConnTracker ct;
  // Client hits a VIP; DNAT to the backend.
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(203, 0, 113, 10), 5555, 80);
  CtNatSpec nat{/*src=*/false, Ipv4(10, 1, 0, 2).value(), 8080};
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  // Backend's reply rewrites its SOURCE back to the VIP.
  FlowKey reply = flow(Ipv4(10, 1, 0, 2), Ipv4(10, 0, 0, 5), 8080, 5555);
  auto r = ct.nat_lookup(reply);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->to_src);
  EXPECT_EQ(r->addr, Ipv4(203, 0, 113, 10).value());
  EXPECT_EQ(r->port, 80);
}

TEST(ConnTrackerTest, NoOpNatDegradesToPlainCommit) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{/*src=*/true, Ipv4(10, 0, 0, 5).value(), 5555};  // identity
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  EXPECT_EQ(ct.size(), 1u);  // no reverse entry minted
  EXPECT_EQ(ct.stats().nat_bindings, 0u);
  EXPECT_FALSE(ct.nat_lookup(fwd).has_value());
}

TEST(ConnTrackerTest, RemoveCascadesToNatPair) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  ct.commit_nat(fwd, nat);
  ASSERT_EQ(ct.size(), 2u);
  EXPECT_TRUE(ct.remove(fwd));
  EXPECT_EQ(ct.size(), 0u);  // reverse entry went with it
  FlowKey reply = flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  EXPECT_EQ(ct.lookup(reply), ct_state::kNew);
}

// Removing via the POST-NAT tuple tears both entries down too: either half
// of the pair names the whole connection.
TEST(ConnTrackerTest, RemoveViaReverseTupleCascades) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  ct.commit_nat(fwd, nat);
  FlowKey reply = flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  EXPECT_TRUE(ct.remove(reply));
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.lookup(fwd), ct_state::kNew);
}

// First binding wins when the post-NAT tuple collides with a live distinct
// connection: the second commit keeps its forward rewrite but gets no
// reverse entry (deterministic, never flaps).
TEST(ConnTrackerTest, PostNatCollisionFirstWins) {
  ConnTracker ct;
  // A plain connection already occupies what will be the post-NAT tuple.
  FlowKey occupant = flow(Ipv4(192, 0, 2, 9), Ipv4(198, 51, 100, 1),
                          40001, 80);
  ct.commit(occupant);
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  EXPECT_EQ(ct.size(), 2u);  // occupant + primary, no reverse entry
  // Forward rewrite still applies; the occupant keeps its tuple.
  EXPECT_TRUE(ct.nat_lookup(fwd).has_value());
  EXPECT_FALSE(ct.nat_lookup(occupant).has_value());
}

// Idle expiry of either half of a NAT pair removes both: a half-alive NAT
// connection would un-NAT replies for a connection that no longer exists.
TEST(ConnTrackerTest, ExpiryCascadesToNatPair) {
  ConnTrackerConfig cfg;
  cfg.idle_timeout_ns = 1000;
  ConnTracker ct(cfg);
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  ct.commit_nat(fwd, nat, 0, /*now_ns=*/100);
  ASSERT_EQ(ct.size(), 2u);
  EXPECT_EQ(ct.expire_idle(2000), 2u);
  EXPECT_EQ(ct.size(), 0u);
}

TEST(ConnTrackerTest, FlushDropsEverythingAndBumpsGeneration) {
  ConnTracker ct;
  ct.commit(conn_n(1));
  ct.commit(conn_n(2), 3);
  const uint64_t gen = ct.generation();
  ct.flush();
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.zone_size(3), 0u);
  EXPECT_GT(ct.generation(), gen);
  // Flushing an empty tracker is generation-neutral.
  const uint64_t gen2 = ct.generation();
  ct.flush();
  EXPECT_EQ(ct.generation(), gen2);
}

// --- The datapath's ct action (execute / preview) ----------------------------

constexpr uint16_t kSyn = 0x002, kAck = 0x010, kPshAck = 0x018,
                   kFinAck = 0x011, kRst = 0x004, kSynAck = kSyn | kAck;

FlowKey seg(const FlowKey& k, uint16_t flags) {
  FlowKey out = k;
  out.set_tcp_flags(flags);
  return out;
}

CtAction commit_ct(uint16_t zone = 0) {
  CtAction ct;
  ct.zone = zone;
  ct.commit = true;
  return ct;
}

// One connect-request-response-disconnect transaction: the tracker keeps
// the connection through the half-close (first FIN) and the peer's FIN, and
// the final ACK closes it. Nothing is left behind — in particular the
// peer's FIN-ACK does not re-open the connection.
TEST(ConnTrackerTest, CrrTransactionLeavesNothing) {
  ConnTracker ct;
  const FlowKey c2s = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 40000, 80);
  const FlowKey s2c = flow(Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 1), 80, 40000);
  struct Step {
    const FlowKey* dir;
    uint16_t flags;
    uint8_t state;   // what the packet reads
    size_t size;     // connections after it
  };
  const uint8_t est = ct_state::kEstablished;
  const uint8_t rpl = ct_state::kEstablished | ct_state::kReply;
  const Step steps[] = {
      {&c2s, kSyn, ct_state::kNew, 1}, {&s2c, kSynAck, rpl, 1},
      {&c2s, kAck, est, 1},            {&c2s, kPshAck, est, 1},
      {&s2c, kPshAck, rpl, 1},         {&c2s, kFinAck, est, 1},  // half-close
      {&s2c, kFinAck, rpl, 1},  // both FINs: the last ACK is still due
      {&c2s, kAck, est, 0},     // closes it
  };
  uint64_t now = 1;
  for (const Step& st : steps) {
    const ConnTracker::Verdict v = ct.execute(seg(*st.dir, st.flags),
                                              commit_ct(), now++);
    EXPECT_EQ(v.state, st.state) << "flags " << st.flags;
    EXPECT_EQ(ct.size(), st.size) << "flags " << st.flags;
  }
  EXPECT_EQ(ct.stats().committed, 1u);
  EXPECT_EQ(ct.stats().removed, 1u);
}

// A RST closes the connection at once, from either side, and opens
// nothing when no connection exists.
TEST(ConnTrackerTest, RstClosesAtOnce) {
  const FlowKey c2s = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 40000, 80);
  const FlowKey s2c = flow(Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 1), 80, 40000);
  for (const FlowKey* rst_dir : {&c2s, &s2c}) {
    ConnTracker ct;
    ct.execute(seg(c2s, kSyn), commit_ct(), 1);
    ct.execute(seg(s2c, kSynAck), commit_ct(), 2);
    ASSERT_EQ(ct.size(), 1u);
    const ConnTracker::Verdict v =
        ct.execute(seg(*rst_dir, kRst), commit_ct(), 3);
    EXPECT_TRUE(v.state & ct_state::kEstablished);  // it closes that one
    EXPECT_EQ(ct.size(), 0u);
    EXPECT_EQ(ct.lookup(c2s), ct_state::kNew);
    // A stray RST on the dead tuple opens nothing.
    EXPECT_EQ(ct.execute(seg(c2s, kRst), commit_ct(), 4).state,
              ct_state::kNew);
    EXPECT_EQ(ct.size(), 0u);
  }
}

// A lookup-only ct neither commits nor tears down.
TEST(ConnTrackerTest, LookupOnlyCtChangesNothing) {
  ConnTracker ct;
  const FlowKey k = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 40000, 80);
  CtAction lookup;
  EXPECT_EQ(ct.execute(seg(k, kSyn), lookup, 1).state, ct_state::kNew);
  EXPECT_EQ(ct.size(), 0u);
  ct.commit(k, 0, 1);
  EXPECT_TRUE(ct.execute(seg(k, kRst), lookup, 2).state &
              ct_state::kEstablished);
  EXPECT_EQ(ct.size(), 1u);
}

// The first packet of a NAT connection commits the binding and is itself
// rewritten; replies to the NAT address are un-NATed, and the FINs from
// both sides close the pair. preview() answers what execute() will.
TEST(ConnTrackerTest, NatCommitRewritesFirstPacketAndClosesPair) {
  ConnTracker ct;
  const FlowKey c2s = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 40000, 80);
  const FlowKey s2c = flow(Ipv4(10, 0, 0, 2), Ipv4(192, 0, 2, 9), 80, 5000);
  CtAction snat = commit_ct();
  snat.nat = CtAction::Nat::kSrc;
  snat.nat_addr = Ipv4(192, 0, 2, 9).value();
  snat.nat_port = 5000;

  const ConnTracker::Verdict expect = ct.preview(seg(c2s, kSyn), snat);
  const ConnTracker::Verdict first = ct.execute(seg(c2s, kSyn), snat, 1);
  EXPECT_EQ(first, expect);
  EXPECT_EQ(first.state, ct_state::kNew);
  ASSERT_TRUE(first.has_nat);
  EXPECT_TRUE(first.nat.to_src);
  EXPECT_EQ(first.nat.addr, Ipv4(192, 0, 2, 9).value());
  EXPECT_EQ(ct.size(), 2u);  // the primary and its reverse entry

  const ConnTracker::Verdict reply = ct.execute(seg(s2c, kSynAck), snat, 2);
  EXPECT_EQ(reply.state, ct_state::kEstablished | ct_state::kReply);
  ASSERT_TRUE(reply.has_nat);
  EXPECT_FALSE(reply.nat.to_src);  // un-NAT the destination
  EXPECT_EQ(reply.nat.addr, Ipv4(10, 0, 0, 1).value());

  ct.execute(seg(c2s, kFinAck), snat, 3);
  ct.execute(seg(s2c, kFinAck), snat, 4);
  EXPECT_EQ(ct.size(), 2u);
  const ConnTracker::Verdict last = ct.execute(seg(c2s, kAck), snat, 5);
  EXPECT_TRUE(last.has_nat);  // the closing packet keeps its rewrite
  EXPECT_EQ(ct.size(), 0u);
}

}  // namespace
}  // namespace ovs
