// Property tests: under EVERY combination of optimization flags, the
// classifier must (a) agree with a naive linear scan, and (b) generate
// *sound* wildcards — any packet that matches the generated megaflow mask
// must receive the same classification result. Property (b) is the
// correctness condition for the entire megaflow cache (paper §5.1: "failing
// to match a field that must be included can cause incorrect packet
// forwarding, which makes such errors unacceptable").
#include <gtest/gtest.h>

#include <tuple>

#include "classifier/classifier.h"
#include "test_util.h"

namespace ovs {
namespace {

using testutil::RuleSet;
using testutil::TestRule;

struct ConfigCase {
  const char* name;
  ClassifierConfig cfg;
};

std::vector<ConfigCase> all_configs() {
  std::vector<ConfigCase> cases;
  cases.push_back({"none", ClassifierConfig::all_disabled()});
  {
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.priority_sorting = true;
    cases.push_back({"priority_sorting", c});
  }
  {
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.staged_lookup = true;
    cases.push_back({"staged", c});
  }
  {
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.prefix_tracking = true;
    c.port_prefix_tracking = true;
    cases.push_back({"prefix", c});
  }
  {
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.partitioning = true;
    cases.push_back({"partitioning", c});
  }
  cases.push_back({"all", ClassifierConfig{}});
  {
    ClassifierConfig c;
    c.icmp_port_trie_bug = true;  // the bug must still be *correct*
    cases.push_back({"all_with_icmp_bug", c});
  }
  {
    // Address and port tries are kept only when their tracking is on, so
    // each half alone must stay exact under insert/remove churn.
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.prefix_tracking = true;
    cases.push_back({"addr_prefix_only", c});
  }
  {
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.port_prefix_tracking = true;
    cases.push_back({"port_prefix_only", c});
  }
  return cases;
}

class ClassifierPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(ClassifierPropertyTest, AgreesWithOracleAndWildcardsAreSound) {
  const auto [cfg_idx, seed] = GetParam();
  const ConfigCase cc = all_configs()[cfg_idx];
  SCOPED_TRACE(cc.name);

  Rng rng(seed);
  RuleSet rs(cc.cfg);

  // Build a random rule set with unique priorities (so the oracle's winner
  // is unambiguous), interleaving some removals to exercise updates.
  std::vector<TestRule*> live;
  int next_prio = 1;
  for (int i = 0; i < 120; ++i) {
    Match m = testutil::random_match(rng);
    // Skip exact duplicates of (match, priority) — forbidden by contract.
    live.push_back(rs.add(m, next_prio++, i));
    if (rng.chance(0.15) && !live.empty()) {
      size_t victim = rng.uniform(live.size());
      rs.remove(live[victim]);
      live.erase(live.begin() + static_cast<long>(victim));
    }
  }

  for (int q = 0; q < 400; ++q) {
    const FlowKey pkt = testutil::random_packet(rng);
    FlowWildcards wc;
    const Rule* got = rs.classifier().lookup(pkt, &wc);
    const TestRule* want = rs.naive_lookup(pkt);

    // (a) Same result as the oracle.
    if (want == nullptr) {
      ASSERT_EQ(got, nullptr) << pkt.to_string();
    } else {
      ASSERT_NE(got, nullptr) << pkt.to_string();
      ASSERT_EQ(static_cast<const TestRule*>(got)->priority(),
                want->priority())
          << pkt.to_string();
    }

    // (b) Wildcard soundness: flip bits OUTSIDE wc; result must not change.
    for (int trial = 0; trial < 10; ++trial) {
      FlowKey mutant = pkt;
      for (size_t w = 0; w < kFlowWords; ++w) {
        const uint64_t flip = rng.next() & ~wc.w[w];
        if (rng.chance(0.5)) mutant.w[w] ^= flip;
      }
      const TestRule* mutant_want = rs.naive_lookup(mutant);
      // The megaflow's action is `got`; the mutant would hit the same
      // megaflow, so the pipeline's answer for it must match.
      if (want == nullptr) {
        ASSERT_EQ(mutant_want, nullptr)
            << "unsound wildcards (" << cc.name << "):\n  pkt    "
            << pkt.to_string() << "\n  mutant " << mutant.to_string()
            << "\n  wc     " << wc.to_string();
      } else {
        ASSERT_NE(mutant_want, nullptr)
            << "unsound wildcards (" << cc.name << "):\n  pkt    "
            << pkt.to_string() << "\n  mutant " << mutant.to_string()
            << "\n  wc     " << wc.to_string();
        ASSERT_EQ(mutant_want->priority(), want->priority())
            << "unsound wildcards (" << cc.name << "):\n  pkt    "
            << pkt.to_string() << "\n  mutant " << mutant.to_string()
            << "\n  wc     " << wc.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClassifierPropertyTest,
    ::testing::Combine(::testing::Range<size_t>(0, all_configs().size()),
                       ::testing::Values(11, 22, 33, 44)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& p) {
      return std::string(all_configs()[std::get<0>(p.param)].name) + "_s" +
             std::to_string(std::get<1>(p.param));
    });

// Optimized configurations must generate megaflows that are never *more
// specific* than the unoptimized ones on the same table & packet.
TEST(ClassifierGeneralityTest, OptimizationsOnlyWidenMegaflows) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    RuleSet base(ClassifierConfig::all_disabled());
    RuleSet opt;  // all optimizations
    int prio = 1;
    for (int i = 0; i < 60; ++i) {
      Match m = testutil::random_match(rng);
      base.add(m, prio, i);
      opt.add(m, prio, i);
      ++prio;
    }
    int wider = 0;
    for (int q = 0; q < 100; ++q) {
      FlowKey pkt = testutil::random_packet(rng);
      FlowWildcards wc_base, wc_opt;
      base.classifier().lookup(pkt, &wc_base);
      opt.classifier().lookup(pkt, &wc_opt);
      int bits_base = 0, bits_opt = 0;
      for (size_t w = 0; w < kFlowWords; ++w) {
        bits_base += __builtin_popcountll(wc_base.w[w]);
        bits_opt += __builtin_popcountll(wc_opt.w[w]);
      }
      EXPECT_LE(bits_opt, bits_base) << pkt.to_string();
      if (bits_opt < bits_base) ++wider;
    }
    // The optimizations must actually help on a meaningful fraction.
    EXPECT_GT(wider, 0);
  }
}

}  // namespace
}  // namespace ovs
