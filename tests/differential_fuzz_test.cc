// Model-based differential fuzzing: replay seeded scenarios against every
// switch configuration and diff per-packet action traces, converged probe
// results, ledger invariants, and the megaflow invariant checker against
// the naive OracleSwitch (src/testing/). A deliberately unsound
// configuration — the historical kTags revalidation ablation, whose Bloom
// tags track only MAC learning and so never repair flows invalidated by
// table changes — must be detected and the triggering scenario minimized
// by the delta-debugging shrinker.
//
// Budget knobs (CI sets these; defaults satisfy the acceptance bar):
//   VSWITCH_FUZZ_SEEDS   scenarios for the zero-divergence sweep (>= 200)
//   VSWITCH_FUZZ_EVENTS  events per generated scenario
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/differential.h"
#include "testing/oracle_switch.h"
#include "testing/scenario.h"

namespace ovs {
namespace {

using fuzz::DifferentialRunner;
using fuzz::DiffConfig;
using fuzz::Divergence;
using fuzz::FuzzEvent;
using fuzz::GeneratorConfig;
using fuzz::Scenario;

size_t env_or(const char* name, size_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

GeneratorConfig generator_config() {
  GeneratorConfig cfg;
  cfg.n_events = env_or("VSWITCH_FUZZ_EVENTS", cfg.n_events);
  return cfg;
}

// CI uploads FUZZ_REPRO_* from the build directory on failure; each file is
// a self-contained, replayable minimized scenario.
std::string repro_path(uint64_t seed, const std::string& config_name) {
  std::string tag = config_name;
  for (char& c : tag)
    if (c == '/' || c == ' ') c = '-';
  return "FUZZ_REPRO_seed" + std::to_string(seed) + "_" + tag + ".scenario";
}

TEST(DifferentialFuzz, EventSerializationRoundTrips) {
  const Scenario sc = fuzz::generate_scenario(7, generator_config());
  ASSERT_FALSE(sc.events.empty());
  for (const FuzzEvent& ev : sc.events) {
    FuzzEvent back;
    ASSERT_TRUE(FuzzEvent::from_line(ev.to_line(), &back)) << ev.to_line();
    EXPECT_EQ(ev.to_line(), back.to_line());
  }
  Scenario parsed;
  ASSERT_TRUE(Scenario::deserialize(sc.serialize(), &parsed));
  EXPECT_EQ(sc.serialize(), parsed.serialize());
  EXPECT_EQ(sc.seed, parsed.seed);
  EXPECT_EQ(sc.events.size(), parsed.events.size());
}

TEST(DifferentialFuzz, GeneratorIsDeterministic) {
  const GeneratorConfig cfg = generator_config();
  EXPECT_EQ(fuzz::generate_scenario(42, cfg).serialize(),
            fuzz::generate_scenario(42, cfg).serialize());
  EXPECT_NE(fuzz::generate_scenario(42, cfg).serialize(),
            fuzz::generate_scenario(43, cfg).serialize());
}

TEST(DifferentialFuzz, OracleEpochsModelLazyInvalidation) {
  fuzz::OracleSwitch oracle;
  oracle.add_port(1);
  oracle.add_port(2);
  ASSERT_EQ("", oracle.add_flow("priority=10, ip, nw_dst=10.1.0.0/16, "
                                "actions=output:2"));
  FlowKey k;
  k.set_in_port(1);
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_dst(Ipv4((10u << 24) | (1u << 16) | 5));
  k.set_nw_proto(ipproto::kTcp);
  EXPECT_EQ("output:2", oracle.current(k, 0).to_string());

  // A shadowing reroute opens a new epoch: both answers acceptable until
  // the runner observes a clean revalidation pass and collapses.
  ASSERT_EQ("", oracle.add_flow("priority=40, ip, nw_dst=10.1.0.0/16, "
                                "actions=output:1"));
  auto acc = oracle.acceptable(k, 0);
  ASSERT_EQ(3u, oracle.epoch_count());  // empty, +rule, +reroute
  std::vector<std::string> strs;
  for (const auto& a : acc) strs.push_back(a.to_string());
  EXPECT_NE(strs.end(), std::find(strs.begin(), strs.end(), "output:2"));
  // Hairpin suppression: output:1 == in_port, so the new epoch drops.
  EXPECT_NE(strs.end(), std::find(strs.begin(), strs.end(), "drop"));

  oracle.collapse();
  EXPECT_EQ(1u, oracle.epoch_count());
  EXPECT_EQ(1u, oracle.acceptable(k, 0).size());
}

// The acceptance bar: >= 200 seeded scenarios, every sound configuration,
// zero divergences. Any divergence is shrunk and written out as a
// FUZZ_REPRO_* artifact before the test fails.
TEST(DifferentialFuzz, AllConfigsMatchOracle) {
  const size_t n_seeds = env_or("VSWITCH_FUZZ_SEEDS", 200);
  const GeneratorConfig gcfg = generator_config();
  const std::vector<DiffConfig> cfgs = fuzz::standard_configs();
  ASSERT_EQ(10u, cfgs.size());
  DifferentialRunner runner;

  std::vector<std::string> failures;
  for (uint64_t seed = 1; seed <= n_seeds; ++seed) {
    const Scenario sc = fuzz::generate_scenario(seed, gcfg);
    for (const DiffConfig& cfg : cfgs) {
      std::optional<Divergence> d = runner.run(sc, cfg);
      if (!d) continue;
      const Scenario small = runner.shrink(sc, cfg);
      const std::string path = repro_path(seed, cfg.name);
      fuzz::save_scenario(path, small, d->to_string());
      failures.push_back(d->to_string() + " (repro: " + path + ", " +
                         std::to_string(small.events.size()) + " events)");
      if (failures.size() >= 4) break;  // enough signal; stop burning time
    }
    if (failures.size() >= 4) break;
  }
  EXPECT_TRUE(failures.empty()) << [&] {
    std::string all;
    for (const std::string& f : failures) all += f + "\n";
    return all;
  }();
}

// The classifier-configuration matrix: the same seeded scenarios, but the
// switch under test runs a tenant-partitioned classifier (DESIGN.md §14)
// while the oracle's classifier stays flat. Zero divergences means the
// partitions are end-to-end indistinguishable from one flat table —
// megaflow generation included, since unsound wildcards surface as probe
// or trace divergences here.
TEST(DifferentialFuzz, EngineMatrixMatchesOracle) {
  const size_t n_seeds = env_or("VSWITCH_FUZZ_SEEDS", 200);
  const GeneratorConfig gcfg = generator_config();
  const std::vector<DiffConfig> cfgs = fuzz::engine_configs();
  ASSERT_EQ(1u, cfgs.size());
  DifferentialRunner runner;

  std::vector<std::string> failures;
  for (uint64_t seed = 1; seed <= n_seeds; ++seed) {
    const Scenario sc = fuzz::generate_scenario(seed, gcfg);
    for (const DiffConfig& cfg : cfgs) {
      std::optional<Divergence> d = runner.run(sc, cfg);
      if (!d) continue;
      const Scenario small = runner.shrink(sc, cfg);
      const std::string path = repro_path(seed, cfg.name);
      fuzz::save_scenario(path, small, d->to_string());
      failures.push_back(d->to_string() + " (repro: " + path + ", " +
                         std::to_string(small.events.size()) + " events)");
      if (failures.size() >= 4) break;  // enough signal; stop burning time
    }
    if (failures.size() >= 4) break;
  }
  EXPECT_TRUE(failures.empty()) << [&] {
    std::string all;
    for (const std::string& f : failures) all += f + "\n";
    return all;
  }();
}

// The harness must have teeth: a switch with the historical tags-only
// revalidator (which silently skips repairing flows staled by table
// changes) must diverge, and the shrinker must cut the reproducer down to
// a handful of events.
TEST(DifferentialFuzz, TagsAblationIsCaughtAndShrunk) {
  const GeneratorConfig gcfg = generator_config();
  const DiffConfig ablation = fuzz::tags_ablation_config();
  DifferentialRunner runner;

  Scenario found;
  std::optional<Divergence> d;
  uint64_t found_seed = 0;
  for (uint64_t seed = 1; seed <= 50 && !d; ++seed) {
    Scenario sc = fuzz::generate_scenario(seed, gcfg);
    d = runner.run(sc, ablation);
    if (d) {
      found = std::move(sc);
      found_seed = seed;
    }
  }
  ASSERT_TRUE(d.has_value())
      << "tags ablation produced no divergence in 50 seeds: the harness "
         "has no bug-finding power";

  const Scenario small = runner.shrink(found, ablation);
  EXPECT_LE(small.events.size(), 10u)
      << "shrinker left " << small.events.size() << " events:\n"
      << small.serialize();
  std::optional<Divergence> still = runner.run(small, ablation);
  ASSERT_TRUE(still.has_value()) << "shrunk scenario no longer diverges";

  // The minimized reproducer is the bug's signature, not the harness's:
  // every sound configuration replays it cleanly.
  for (const DiffConfig& cfg : fuzz::standard_configs()) {
    std::optional<Divergence> dv = runner.run(small, cfg);
    EXPECT_FALSE(dv.has_value())
        << cfg.name << " diverges on the minimized scenario: "
        << dv->to_string() << "\n"
        << small.serialize();
  }

  // Round-trip through the corpus format and re-reproduce.
  const std::string path = repro_path(found_seed, ablation.name);
  ASSERT_TRUE(fuzz::save_scenario(path, small, still->to_string()));
  Scenario loaded;
  ASSERT_TRUE(fuzz::load_scenario(path, &loaded));
  EXPECT_EQ(small.serialize(), loaded.serialize());
  EXPECT_TRUE(runner.run(loaded, ablation).has_value());
  std::remove(path.c_str());
}

// Same teeth check for the second ablation (DESIGN.md §15): a datapath that
// drops the ct verdict's ct_state when it recirculates sends every post-ct
// stage down its stateless route. The fuzzer must diverge on it and the
// shrinker must minimize the reproducer
// (tests/corpus/ct_recirc_drops_ct_state.scenario is one).
TEST(DifferentialFuzz, CtAblationIsCaughtAndShrunk) {
  const GeneratorConfig gcfg = generator_config();
  const DiffConfig ablation = fuzz::ct_ablation_config();
  DifferentialRunner runner;

  Scenario found;
  std::optional<Divergence> d;
  uint64_t found_seed = 0;
  for (uint64_t seed = 1; seed <= 50 && !d; ++seed) {
    Scenario sc = fuzz::generate_scenario(seed, gcfg);
    d = runner.run(sc, ablation);
    if (d) {
      found = std::move(sc);
      found_seed = seed;
    }
  }
  ASSERT_TRUE(d.has_value())
      << "ct ablation produced no divergence in 50 seeds: the stateful "
         "scenarios have no bug-finding power";

  const Scenario small = runner.shrink(found, ablation);
  EXPECT_LE(small.events.size(), 10u)
      << "shrinker left " << small.events.size() << " events:\n"
      << small.serialize();
  std::optional<Divergence> still = runner.run(small, ablation);
  ASSERT_TRUE(still.has_value()) << "shrunk scenario no longer diverges";

  // The minimized reproducer indicts the ablation, not the harness: every
  // sound configuration replays it cleanly.
  for (const DiffConfig& cfg : fuzz::standard_configs()) {
    std::optional<Divergence> dv = runner.run(small, cfg);
    EXPECT_FALSE(dv.has_value())
        << cfg.name << " diverges on the minimized scenario: "
        << dv->to_string() << "\n"
        << small.serialize();
  }

  // Round-trip through the corpus format and re-reproduce.
  const std::string path = repro_path(found_seed, ablation.name);
  ASSERT_TRUE(fuzz::save_scenario(path, small, still->to_string()));
  Scenario loaded;
  ASSERT_TRUE(fuzz::load_scenario(path, &loaded));
  EXPECT_EQ(small.serialize(), loaded.serialize());
  EXPECT_TRUE(runner.run(loaded, ablation).has_value());
  std::remove(path.c_str());
}

#ifdef VSWITCH_TEST_CORPUS_DIR
// Checked-in minimized reproducers replay as ordinary test cases: each must
// still diverge under its ablation and replay cleanly under every sound
// configuration.
TEST(DifferentialFuzz, CorpusTagsStaleActionsReplays) {
  const std::string path =
      std::string(VSWITCH_TEST_CORPUS_DIR) + "/tags_stale_actions.scenario";
  Scenario sc;
  ASSERT_TRUE(fuzz::load_scenario(path, &sc)) << path;
  ASSERT_FALSE(sc.events.empty());

  DifferentialRunner runner;
  std::optional<Divergence> d = runner.run(sc, fuzz::tags_ablation_config());
  ASSERT_TRUE(d.has_value())
      << "corpus scenario no longer reproduces the tags-ablation bug";
  EXPECT_EQ("probe", d->kind) << d->to_string();

  for (const DiffConfig& cfg : fuzz::standard_configs()) {
    std::optional<Divergence> dv = runner.run(sc, cfg);
    EXPECT_FALSE(dv.has_value()) << cfg.name << ": " << dv->to_string();
  }
  for (const DiffConfig& cfg : fuzz::engine_configs()) {
    std::optional<Divergence> dv = runner.run(sc, cfg);
    EXPECT_FALSE(dv.has_value()) << cfg.name << ": " << dv->to_string();
  }
}

// Regression corpus for a real bug this harness found: the revalidator kept
// megaflows whose installed mask was broader than the fresh translation
// required, as long as the witness key's actions still agreed (an empty-table
// drop entry pinning only in_port then swallowed packets newer rules should
// route). Every sound configuration must now replay this cleanly.
TEST(DifferentialFuzz, CorpusOverbroadDropMegaflowReplays) {
  const std::string path = std::string(VSWITCH_TEST_CORPUS_DIR) +
                           "/overbroad_drop_megaflow.scenario";
  Scenario sc;
  ASSERT_TRUE(fuzz::load_scenario(path, &sc)) << path;
  ASSERT_EQ(3u, sc.events.size());

  DifferentialRunner runner;
  for (const DiffConfig& cfg : fuzz::standard_configs()) {
    std::optional<Divergence> dv = runner.run(sc, cfg);
    EXPECT_FALSE(dv.has_value()) << cfg.name << ": " << dv->to_string();
  }
  for (const DiffConfig& cfg : fuzz::engine_configs()) {
    std::optional<Divergence> dv = runner.run(sc, cfg);
    EXPECT_FALSE(dv.has_value()) << cfg.name << ": " << dv->to_string();
  }
}
// The stateful scenarios: each must diverge under the CT ablation — with
// the expected probe signature — and replay cleanly under every sound
// configuration (standard + partitioned).
class CorpusCtScenario : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusCtScenario, DivergesUnderCtAblationOnly) {
  const std::string path =
      std::string(VSWITCH_TEST_CORPUS_DIR) + "/" + GetParam();
  Scenario sc;
  ASSERT_TRUE(fuzz::load_scenario(path, &sc)) << path;
  ASSERT_FALSE(sc.events.empty());

  DifferentialRunner runner;
  std::optional<Divergence> d = runner.run(sc, fuzz::ct_ablation_config());
  ASSERT_TRUE(d.has_value())
      << "corpus scenario no longer reproduces the ct-ablation bug: "
      << path;
  EXPECT_EQ("probe", d->kind) << d->to_string();

  for (const DiffConfig& cfg : fuzz::standard_configs()) {
    std::optional<Divergence> dv = runner.run(sc, cfg);
    EXPECT_FALSE(dv.has_value()) << cfg.name << ": " << dv->to_string();
  }
  for (const DiffConfig& cfg : fuzz::engine_configs()) {
    std::optional<Divergence> dv = runner.run(sc, cfg);
    EXPECT_FALSE(dv.has_value()) << cfg.name << ": " << dv->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    StatefulCorpus, CorpusCtScenario,
    ::testing::Values("ct_recirc_drops_ct_state.scenario",
                      "ct_stale_ctstate.scenario",
                      "ct_expiry_reval.scenario",
                      "ct_nat_rebinding.scenario",
                      "ct_nat_pair_teardown.scenario",
                      "ct_zone_evict_reval.scenario"),
    [](const ::testing::TestParamInfo<const char*>& param) {
      std::string name = param.param;
      name = name.substr(0, name.find('.'));
      return name;
    });
#endif

}  // namespace
}  // namespace ovs
