// Text round trip of the durable flow configuration: restart() rebuilds the
// flow tables from format_flow() output through parse_flow(), so every rule
// the generators emit — the fuzz scenario generator's flow text (ct/NAT,
// zones, set-field, tunnel, controller) and the table generators' installed
// pipelines — must come back from parse_flow(format_flow(r)) with the same
// table, priority, match and actions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ofproto/flow_parser.h"
#include "testing/scenario.h"
#include "vswitchd/switch.h"
#include "workload/explosion.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

// Formats (table, priority, match, actions), parses the text back and
// expects the identical rule. Returns the number of failed expectations'
// worth of context via gtest; the caller stops on the first failure.
void expect_round_trip(size_t table, int32_t priority, const Match& match,
                       const OfActions& actions, const std::string& origin) {
  const std::string text = format_flow(table, priority, match, actions);
  const FlowParseResult back = parse_flow(text);
  ASSERT_TRUE(back.ok) << origin << "\n  formatted: " << text
                       << "\n  error: " << back.error;
  EXPECT_EQ(back.flow.table, table) << origin << "\n  formatted: " << text;
  EXPECT_EQ(back.flow.priority, priority) << origin << "\n  formatted: "
                                          << text;
  EXPECT_EQ(back.flow.match, match)
      << origin << "\n  formatted: " << text << "\n  want " << match.to_string()
      << "\n  got  " << back.flow.match.to_string();
  EXPECT_EQ(back.flow.actions, actions)
      << origin << "\n  formatted: " << text << "\n  want "
      << actions.to_string() << "\n  got  " << back.flow.actions.to_string();
}

void expect_tables_round_trip(Switch& sw, const std::string& origin) {
  size_t n = 0;
  for (size_t t = 0; t < sw.pipeline().n_tables(); ++t) {
    sw.pipeline().table(t).for_each([&](const OfRule* r) {
      ++n;
      expect_round_trip(t, r->priority(), r->match(), r->actions(), origin);
    });
  }
  EXPECT_GT(n, 0u) << origin;
}

TEST(ConfigRoundTrip, ScenarioGeneratorRules) {
  // The generator's prologue installs the stateful ct/NAT/zone rules; the
  // random rule events cover output, tunnel, controller, resubmit,
  // set-field and drop. 300 seeds reach every template many times.
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const fuzz::Scenario sc = fuzz::generate_scenario(seed);
    for (const fuzz::FuzzEvent& ev : sc.events) {
      if (ev.kind != fuzz::FuzzEvent::Kind::kAddFlow) continue;
      const FlowParseResult res = parse_flow(ev.text);
      ASSERT_TRUE(res.ok) << ev.text << ": " << res.error;
      expect_round_trip(res.flow.table, res.flow.priority, res.flow.match,
                        res.flow.actions,
                        "seed " + std::to_string(seed) + ": " + ev.text);
      ++checked;
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(checked, 300u);
}

TEST(ConfigRoundTrip, NvpPipelines) {
  for (bool stateful : {false, true}) {
    for (uint64_t seed : {17u, 5u, 99u}) {
      NvpConfig cfg;
      cfg.n_tenants = 6;
      cfg.acl_tenant_fraction = 0.5;
      cfg.stateful_acl_tenants = stateful;
      cfg.seed = seed;
      Switch sw;
      install_nvp_pipeline(sw, cfg);
      expect_tables_round_trip(sw, std::string("nvp stateful=") +
                                       (stateful ? "1" : "0") + " seed " +
                                       std::to_string(seed));
      if (HasFailure()) return;
    }
  }
}

TEST(ConfigRoundTrip, PaperMicrobenchTable) {
  Switch sw;
  install_paper_microbench_table(sw, 2);
  expect_tables_round_trip(sw, "paper microbench table");
}

TEST(ConfigRoundTrip, RandomClassifierAndExplosionMatches) {
  // Match-only generators: the benches install these with any action, so
  // the round trip is checked with a plain output.
  const OfActions out = OfActions().output(2);
  Classifier cls;
  Rng rng(3);
  const std::vector<std::unique_ptr<OwnedRule>> rules =
      build_random_classifier(cls, 2000, 16, rng);
  for (const auto& r : rules) {
    expect_round_trip(0, r->priority(), r->match(), out, "random classifier");
    if (HasFailure()) return;
  }
  ExplosionConfig ecfg;
  ecfg.n_rules = 64;
  for (const Match& m : make_explosion_rules(ecfg)) {
    Match norm = m;
    norm.normalize();
    expect_round_trip(1, 10, norm, out, "explosion rule");
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace ovs
