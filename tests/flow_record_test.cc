// Lifecycle of the per-flow userspace record (datapath/dp_shared.h): it is
// born blank with its datapath entry, captured and refreshed by vswitchd,
// blanked by a daemon crash, and dies with the entry — so a flow never
// inherits another flow's attribution or offload placement state. Runs on
// both backends (record embedded in MegaflowEntry and in MtMegaflow).
#include <gtest/gtest.h>

#include "sim/clock.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

Packet pkt_to(Ipv4 dst, uint32_t size = 100) {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(1, 1, 1, 1));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(40000);
  p.key.set_tp_dst(80);
  p.size_bytes = size;
  return p;
}

class FlowRecordTest : public ::testing::TestWithParam<size_t> {
 protected:
  void build(size_t offload_slots = 0) {
    SwitchConfig cfg;
    cfg.datapath_workers = GetParam();
    cfg.offload_slots = offload_slots;
    sw_ = std::make_unique<Switch>(cfg);
    sw_->add_port(1);
    sw_->add_port(2);
    sw_->table(0).add_flow(rule_match(), 10, OfActions().output(2));
  }
  static Match rule_match() {
    return MatchBuilder().ip().nw_dst_prefix(Ipv4(10, 0, 0, 0), 8);
  }
  const OfRule* rule() {
    return static_cast<const OfRule*>(
        sw_->table(0).classifier().find_exact(rule_match(), 10));
  }
  // Injects `n` copies of `p`, installing its megaflow on the first miss.
  void send(const Packet& p, int n) {
    for (int i = 0; i < n; ++i) {
      sw_->inject(p, clock_.now());
      sw_->handle_upcalls(clock_.now());
    }
  }
  void poll() {
    clock_.advance(kSecond);
    sw_->run_maintenance(clock_.now());
  }
  DpBackend::FlowRef only_flow() {
    const std::vector<DpBackend::FlowRef> flows = sw_->backend().dump();
    EXPECT_EQ(flows.size(), 1u);
    return flows.empty() ? nullptr : flows[0];
  }
  const FlowRecord& record(DpBackend::FlowRef f) {
    return sw_->backend().flow_record(f);
  }

  std::unique_ptr<Switch> sw_;
  VirtualClock clock_;
};

// (a) A flow installed straight into the backend was never translated by
// the daemon: it carries no attribution and pushes nothing, until a
// revalidation refresh captures its rules and credits its whole lifetime.
TEST_P(FlowRecordTest, BackendInstallPushesNothingUntilRefreshed) {
  build();
  poll();  // settle the generations so the next pass skips clean
  const Packet p = pkt_to(Ipv4(10, 0, 0, 1), 150);
  const XlateResult xr =
      sw_->pipeline().translate(p.key, clock_.now(), /*side_effects=*/false);
  DpBackend::FlowRef f =
      sw_->backend().install(xr.megaflow, xr.actions, clock_.now(), &p.key);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(record(f).captured);
  send(p, 4);  // megaflow hits, no upcall
  ASSERT_EQ(sw_->backend().flow_packets(f), 4u);

  poll();
  EXPECT_EQ(sw_->attribution_count(), 0u);
  EXPECT_EQ(rule()->packets(), 0u);

  sw_->force_full_revalidation();
  poll();  // re-translates: kKeepFresh refreshes the attribution
  EXPECT_EQ(sw_->attribution_count(), 1u);
  EXPECT_TRUE(record(f).captured);
  EXPECT_EQ(rule()->packets(), 4u);
  EXPECT_EQ(rule()->bytes(), 4u * 150);
}

// (b) Installing a masked key that is already cached returns the existing
// flow, whose record — captured rules and pushed counters — is untouched.
TEST_P(FlowRecordTest, DuplicateInstallKeepsFirstRecord) {
  build();
  const Packet p = pkt_to(Ipv4(10, 0, 0, 2));
  send(p, 3);
  poll();
  DpBackend::FlowRef f = only_flow();
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(record(f).captured);
  ASSERT_EQ(record(f).pushed_packets, 3u);
  const std::vector<const OfRule*> rules = record(f).rules;
  ASSERT_EQ(rules.size(), 1u);

  DpBackend::FlowRef dup = sw_->backend().install(
      sw_->backend().flow_match(f), DpActions().output(2), clock_.now());
  EXPECT_EQ(dup, f);
  EXPECT_EQ(sw_->backend().flow_count(), 1u);
  EXPECT_TRUE(record(f).captured);
  EXPECT_EQ(record(f).rules, rules);
  EXPECT_EQ(record(f).pushed_packets, 3u);
  EXPECT_EQ(record(f).pushed_bytes, 3u * 100);
}

// (c) A crash blanks every surviving flow's record; restart adoption
// re-captures attribution with the pushed counters seeded at the datapath
// totals, so the rebuilt rules only see post-adoption traffic.
TEST_P(FlowRecordTest, CrashBlanksRecordsAndAdoptionSeedsPushedCounters) {
  build();
  for (uint8_t net = 20; net <= 40; net += 10) {
    sw_->table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(net, 0, 0, 0), 8), 10,
        OfActions().output(2));
  }
  for (uint8_t net = 10; net <= 40; net += 10)
    send(pkt_to(Ipv4(net, 0, 0, 1)), 5);
  poll();
  ASSERT_EQ(sw_->attribution_count(), 4u);

  sw_->crash();
  EXPECT_EQ(sw_->attribution_count(), 0u);
  ASSERT_EQ(sw_->backend().flow_count(), 4u);
  for (DpBackend::FlowRef f : sw_->backend().dump()) {
    const FlowRecord& rec = record(f);
    EXPECT_FALSE(rec.captured);
    EXPECT_TRUE(rec.rules.empty());
    EXPECT_EQ(rec.pushed_packets, 0u);
    EXPECT_EQ(rec.tags, 0u);
  }

  clock_.advance(kSecond);
  ASSERT_TRUE(sw_->restart(clock_.now()));
  EXPECT_EQ(sw_->counters().flows_adopted, 4u);
  EXPECT_EQ(sw_->attribution_count(), 4u);
  for (DpBackend::FlowRef f : sw_->backend().dump()) {
    const FlowRecord& rec = record(f);
    EXPECT_TRUE(rec.captured);
    EXPECT_EQ(rec.pushed_packets, sw_->backend().flow_packets(f));
    EXPECT_EQ(rec.pushed_bytes, sw_->backend().flow_bytes(f));
  }
  poll();
  EXPECT_EQ(rule()->packets(), 0u);  // the rebuilt rule starts from zero
  send(pkt_to(Ipv4(10, 0, 0, 1)), 2);
  poll();
  EXPECT_EQ(rule()->packets(), 2u);
}

// (d) A flow removed and reinstalled under the same masked key starts from
// a blank record: no inherited rules, pushed counters or offload EWMA,
// even when the allocator hands back the same address.
TEST_P(FlowRecordTest, ReinstalledFlowStartsFresh) {
  build(/*offload_slots=*/4);
  const Packet p = pkt_to(Ipv4(10, 0, 0, 3));
  send(p, 6);
  poll();
  DpBackend::FlowRef f = only_flow();
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(record(f).captured);
  ASSERT_EQ(record(f).pushed_packets, 6u);
  ASSERT_TRUE(record(f).seen);
  ASSERT_GT(record(f).ewma, 0.0);

  const Match match = sw_->backend().flow_match(f);
  const DpActions actions = sw_->backend().flow_actions(f);
  sw_->backend().remove(f);
  sw_->backend().purge_dead();
  DpBackend::FlowRef g =
      sw_->backend().install(match, actions, clock_.now(), &p.key);
  ASSERT_NE(g, nullptr);
  const FlowRecord& rec = record(g);
  EXPECT_FALSE(rec.captured);
  EXPECT_TRUE(rec.rules.empty());
  EXPECT_EQ(rec.pushed_packets, 0u);
  EXPECT_EQ(rec.pushed_bytes, 0u);
  EXPECT_EQ(rec.captured_gen, 0u);
  EXPECT_EQ(rec.tags, 0u);
  EXPECT_FALSE(rec.seen);
  EXPECT_EQ(rec.ewma, 0.0);
  EXPECT_EQ(rec.last_packets, 0u);
  EXPECT_FALSE(rec.offloaded);
  EXPECT_FALSE(sw_->backend().offload_contains(g));
}

// (e) Offload placement scores a flow it sees for the first time with its
// lifetime packet count, then folds later intervals into the EWMA.
TEST_P(FlowRecordTest, FirstPlacementScoresLifetimeCount) {
  build(/*offload_slots=*/4);
  const Packet p = pkt_to(Ipv4(10, 0, 0, 4));
  send(p, 7);
  DpBackend::FlowRef f = only_flow();
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(record(f).seen);
  const uint64_t lifetime = sw_->backend().flow_packets(f);
  ASSERT_EQ(lifetime, 7u);

  poll();
  EXPECT_TRUE(record(f).seen);
  EXPECT_EQ(record(f).ewma, 7.0);
  EXPECT_EQ(record(f).last_packets, 7u);
  EXPECT_TRUE(record(f).offloaded);
  EXPECT_TRUE(sw_->backend().offload_contains(f));

  // Offloaded hits still count against the megaflow: 3 more packets fold
  // in as one interval's delta.
  send(p, 3);
  poll();
  const double alpha = SwitchConfig{}.offload_ewma_alpha;
  EXPECT_DOUBLE_EQ(record(f).ewma, alpha * 3.0 + (1.0 - alpha) * 7.0);
  EXPECT_EQ(record(f).last_packets, 10u);
}

INSTANTIATE_TEST_SUITE_P(Backends, FlowRecordTest, ::testing::Values(0, 4),
                         [](const ::testing::TestParamInfo<size_t>& p) {
                           return "workers" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace ovs
