// Reused translation scratch (DESIGN.md §16): a translation through a
// caller's scratch — whose buffers and flags still hold the previous
// translation — must equal a translation through a fresh context, field for
// field, and a revalidation plan must not depend on how many partitions
// (each with its own scratch) produced it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ofproto/flow_parser.h"
#include "ofproto/pipeline.h"
#include "testing/scenario.h"
#include "vswitchd/revalidator.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

// Rules compare by what they are (priority, match, actions): equivalent
// pipelines hold distinct rule objects.
std::vector<std::string> rule_names(const RuleRefs& rules) {
  std::vector<std::string> out;
  for (const OfRule* r : rules)
    out.push_back(std::to_string(r->priority()) + " " +
                  r->match().to_string() + " " + r->actions().to_string());
  return out;
}

void expect_same(const XlateResult& want, const XlateResult& got,
                 const std::string& what) {
  EXPECT_EQ(got.megaflow.mask, want.megaflow.mask) << what;
  EXPECT_EQ(got.megaflow.key, want.megaflow.key) << what;
  EXPECT_EQ(got.actions, want.actions) << what;
  EXPECT_EQ(got.to_controller, want.to_controller) << what;
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.ct_lookups, want.ct_lookups) << what;
  EXPECT_EQ(got.table_lookups, want.table_lookups) << what;
  EXPECT_EQ(got.ct_key, want.ct_key) << what;
  EXPECT_EQ(got.tags, want.tags) << what;
  EXPECT_EQ(rule_names(got.matched_rules), rule_names(want.matched_rules))
      << what;
}

// Two pipelines replay one scenario's mutations: `fresh` translates every
// packet through a new context, `reused` through one scratch. Both
// translate with side effects, so each pipeline's MAC and conntrack state
// evolve identically.
void replay(const fuzz::Scenario& sc) {
  const size_t n_tables = SwitchConfig{}.n_tables;
  Pipeline fresh(n_tables), reused(n_tables);
  Pipeline* const all[] = {&fresh, &reused};
  XlateScratch one;
  uint64_t now = 1;

  for (const fuzz::FuzzEvent& ev : sc.events) {
    switch (ev.kind) {
      case fuzz::FuzzEvent::Kind::kPacket: {
        const XlateResult want = fresh.translate(ev.pkt.key, now);
        const XlateResult& got = reused.translate(ev.pkt.key, now, one);
        expect_same(want, got,
                    "seed " + std::to_string(sc.seed) + " reused " +
                        ev.pkt.key.to_string());
        break;
      }
      case fuzz::FuzzEvent::Kind::kAddFlow: {
        const FlowParseResult res = parse_flow(ev.text);
        if (!res.ok || res.flow.table >= n_tables) break;
        for (Pipeline* pl : all)
          pl->table(res.flow.table)
              .add_flow(res.flow.match, res.flow.priority, res.flow.actions,
                        res.flow.cookie, res.flow.timeouts, now);
        break;
      }
      case fuzz::FuzzEvent::Kind::kDelFlows: {
        const FlowParseResult res = parse_flow(
            ev.text.empty() ? "actions=drop" : ev.text + ", actions=drop");
        if (!res.ok) break;
        for (Pipeline* pl : all)
          for (size_t t = 0; t < n_tables; ++t)
            if (!res.flow.has_table || t == res.flow.table)
              pl->table(t).delete_where(res.flow.match);
        break;
      }
      case fuzz::FuzzEvent::Kind::kAddPort:
        for (Pipeline* pl : all) pl->add_port(ev.port);
        break;
      case fuzz::FuzzEvent::Kind::kRemovePort:
        for (Pipeline* pl : all) pl->remove_port(ev.port);
        break;
      case fuzz::FuzzEvent::Kind::kCtCommit:
        for (Pipeline* pl : all) {
          if (ev.ct_nat) {
            CtNatSpec nat;
            nat.src = ev.ct_nat_src;
            nat.addr = ev.ct_nat_addr;
            nat.port = ev.ct_nat_port;
            pl->conntrack().commit_nat(ev.pkt.key, nat, ev.ct_zone, now);
          } else {
            pl->conntrack().commit(ev.pkt.key, ev.ct_zone, now);
          }
        }
        break;
      case fuzz::FuzzEvent::Kind::kCtRemove:
        for (Pipeline* pl : all) pl->conntrack().remove(ev.pkt.key, ev.ct_zone);
        break;
      case fuzz::FuzzEvent::Kind::kRevalTick:
        now += kSecond;
        for (Pipeline* pl : all) {
          pl->mac_learning().expire(now);
          pl->conntrack().expire_idle(now);
        }
        break;
      case fuzz::FuzzEvent::Kind::kAdvanceTime:
        now += ev.dt_ns;
        break;
      case fuzz::FuzzEvent::Kind::kFaultWindow:
      case fuzz::FuzzEvent::Kind::kCrash:
        break;  // switch-level events; the pipelines carry on
    }
  }
  EXPECT_EQ(reused.conntrack().size(), fresh.conntrack().size());
}

TEST(XlateScratch, ScenarioTranslationsMatchFreshContexts) {
  fuzz::GeneratorConfig gc;
  gc.n_events = 200;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    replay(fuzz::generate_scenario(seed, gc));
    if (HasFailure()) break;
  }
}

// Each path a translation can take leaves something in the scratch — an
// error flag, a controller punt, a ct dependency, rewritten fields, a long
// action list — that the next translation must not inherit. Every ordered
// pair of paths runs through one scratch and is checked against a fresh
// context.
TEST(XlateScratch, EveryPathResetsEveryField) {
  Pipeline pl(8);
  for (uint32_t p : {1u, 2u, 3u}) pl.add_port(p);
  const Match any;
  // in_port 1: set-field rewrites, then ct with SNAT, then output.
  pl.table(0).add_flow(MatchBuilder().in_port(1), 10,
                       OfActions()
                           .set_field(FieldId::kMetadata, 7)
                           .set_reg(1, 9)
                           .ct_nat(1, true, OfCt::Nat::kSrc,
                                   Ipv4(192, 168, 0, 1).value(), 4000));
  pl.table(1).add_flow(any, 1, OfActions().output(2).output(3).tunnel(3, 5));
  // in_port 2: an endless resubmit loop (resubmit-depth error).
  pl.table(0).add_flow(MatchBuilder().in_port(2), 10,
                       OfActions().resubmit(2));
  pl.table(2).add_flow(any, 1, OfActions().resubmit(2));
  // in_port 3: to the controller.
  pl.table(0).add_flow(MatchBuilder().in_port(3), 10,
                       OfActions().controller(4));
  // in_port 4: NORMAL (MAC learning tags, flooding).
  pl.table(0).add_flow(MatchBuilder().in_port(4), 10, OfActions().normal());
  // in_port 5: table miss to the controller in table 5.
  pl.table(0).add_flow(MatchBuilder().in_port(5), 10, OfActions().resubmit(5));
  pl.table(5).set_miss_behavior(FlowTable::MissBehavior::kController);

  auto key = [](uint32_t in_port) {
    FlowKey k;
    k.set_in_port(in_port);
    k.set_eth_src(EthAddr(0x02, 0, 0, 0, 0, static_cast<uint8_t>(in_port)));
    k.set_eth_dst(EthAddr(0x02, 0, 0, 0, 0, 0x99));
    k.set_eth_type(ethertype::kIpv4);
    k.set_nw_proto(ipproto::kTcp);
    k.set_nw_src(Ipv4(10, 0, 0, 1));
    k.set_nw_dst(Ipv4(10, 0, 0, 2));
    k.set_tp_src(1234);
    k.set_tp_dst(80);
    return k;
  };
  // Commit the ct path's connection so it carries a NAT rewrite.
  pl.translate(key(1), 1);

  const uint32_t paths[] = {1, 2, 3, 4, 5, 6};
  XlateScratch scratch;
  for (uint32_t a : paths) {
    for (uint32_t b : paths) {
      pl.translate(key(a), 2, scratch, /*side_effects=*/false);
      const XlateResult want = pl.translate(key(b), 2, /*side_effects=*/false);
      const XlateResult& got =
          pl.translate(key(b), 2, scratch, /*side_effects=*/false);
      expect_same(want, got,
                  "path " + std::to_string(a) + " then " + std::to_string(b));
    }
  }
  // The paths really differ in what they leave behind.
  EXPECT_EQ(pl.translate(key(1), 2, false).ct_lookups, 1u);
  EXPECT_FALSE(pl.translate(key(1), 2, false).actions.list.is_inline());
  EXPECT_TRUE(pl.translate(key(2), 2, false).error);
  EXPECT_TRUE(pl.translate(key(3), 2, false).to_controller);
  EXPECT_NE(pl.translate(key(4), 2, false).tags, 0u);
  EXPECT_TRUE(pl.translate(key(5), 2, false).to_controller);
}

// Plan partitions each translate through their own scratch and file their
// updates in their own lists; the decisions, and the updates they name, must
// not depend on the partition count.
TEST(XlateScratch, PlanDecisionsIndependentOfThreadCount) {
  Switch sw(SwitchConfig{});
  NvpConfig nc;
  nc.n_tenants = 4;
  nc.vms_per_tenant = 4;
  nc.stateful_acl_tenants = true;
  const NvpTopology topo = install_nvp_pipeline(sw, nc);
  uint64_t now = 1;
  for (size_t i = 0; i < 600; ++i) {
    const NvpVm& c = topo.vms[i % topo.vms.size()];
    const NvpVm* s = nullptr;
    for (const NvpVm& v : topo.vms)
      if (v.tenant == c.tenant && v.port != c.port) s = &v;
    ASSERT_NE(s, nullptr);
    std::vector<Packet> burst{
        nvp_packet(c, *s, static_cast<uint16_t>(40000 + i), 8080)};
    sw.inject_batch(burst, now);
    sw.handle_upcalls(now);
  }
  ASSERT_GE(sw.backend().flow_count(), 256u);  // enough for 4 partitions

  // Reroute one VM (new actions for its flows) and shadow another VM's
  // egress rule with an identical one (new attribution, same actions).
  // (Each tenant's last VM is the server of its other VMs' connections.)
  const NvpVm& moved = topo.vms[3];
  const NvpVm& shadowed = topo.vms[7];
  sw.table(3).add_flow(MatchBuilder().reg(1, moved.port), 20,
                       OfActions().output(topo.vms[0].port));
  sw.table(3).add_flow(MatchBuilder().reg(1, shadowed.port), 20,
                       OfActions().output(shadowed.port));

  const std::vector<Datapath::FlowRef> flows = sw.backend().dump();
  Revalidator::Config rc;
  rc.idle_ns = ~uint64_t{0} / 2;
  rc.maybe_stale = true;
  RevalPlan one, four;
  rc.n_threads = 1;
  Revalidator::plan(sw.backend(), sw.pipeline(), flows, now, rc, &one);
  rc.n_threads = 4;
  const RevalPassStats ps4 =
      Revalidator::plan(sw.backend(), sw.pipeline(), flows, now, rc, &four);
  EXPECT_EQ(ps4.threads_used, 4u);

  size_t updated = 0, new_rules = 0;
  ASSERT_EQ(one.decisions.size(), four.decisions.size());
  for (size_t i = 0; i < flows.size(); ++i) {
    const RevalDecision& a = one.decisions[i];
    const RevalDecision& b = four.decisions[i];
    ASSERT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.ct_lookups, b.ct_lookups) << i;
    EXPECT_EQ(a.ct_key, b.ct_key) << i;
    EXPECT_EQ(a.tags, b.tags) << i;
    ASSERT_EQ(a.new_rules, b.new_rules) << i;
    if (a.new_rules) {
      EXPECT_EQ(one.update(a).rules, four.update(b).rules) << i;
      ++new_rules;
    }
    if (a.kind == RevalDecision::Kind::kUpdateActions) {
      EXPECT_EQ(one.update(a).actions, four.update(b).actions) << i;
      ++updated;
    }
  }
  EXPECT_GT(updated, 0u);
  EXPECT_GT(new_rules, updated);  // the shadowed VM's flows kept their actions
}

}  // namespace
}  // namespace ovs
