// Rule-churn property tests for the classifier: under a scripted sequence
// of adds, removes and whole-mask churn, every lookup must return the
// naive linear oracle's winner, generate sound wildcards, and the drain
// back to empty must retire every subtable. The scripted-operation approach
// builds ONE deterministic op sequence and a shadow of the live rules, so
// removal indices resolve identically at generation and apply time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "classifier/classifier.h"
#include "test_util.h"

namespace ovs {
namespace {

using testutil::RuleSet;
using testutil::TestRule;

bool same_mask(const Match& a, const Match& b) {
  for (size_t w = 0; w < kFlowWords; ++w)
    if (a.mask.w[w] != b.mask.w[w]) return false;
  return true;
}

// One scripted mutation. kChurnMask removes every live rule sharing the
// mask of the rule at live_index — the mask-churn case that forces tuple
// teardown, not just per-rule unlinking.
struct Op {
  enum class Kind { kAdd, kRemove, kChurnMask } kind;
  Match match;  // kAdd only
  int32_t priority = 0;
  int id = 0;
  size_t live_index = 0;  // kRemove/kChurnMask: index into the live vector
};

// Generates a deterministic op script. The shadow live list mirrors what
// the RuleSet will hold at every step so removal indices resolve
// identically at apply time.
std::vector<Op> make_script(uint64_t seed, int n_adds) {
  Rng rng(seed);
  std::vector<Op> script;
  std::vector<Match> shadow;
  int32_t next_prio = 1;
  for (int i = 0; i < n_adds; ++i) {
    Op op;
    op.kind = Op::Kind::kAdd;
    op.match = testutil::random_match(rng);
    op.priority = next_prio++;
    op.id = i;
    shadow.push_back(op.match);
    script.push_back(op);
    if (!shadow.empty() && rng.chance(0.12)) {
      Op rm;
      rm.kind = Op::Kind::kRemove;
      rm.live_index = rng.uniform(shadow.size());
      shadow.erase(shadow.begin() + static_cast<long>(rm.live_index));
      script.push_back(rm);
    }
    if (!shadow.empty() && rng.chance(0.04)) {
      Op churn;
      churn.kind = Op::Kind::kChurnMask;
      churn.live_index = rng.uniform(shadow.size());
      const Match victim = shadow[churn.live_index];
      for (size_t j = shadow.size(); j-- > 0;)
        if (same_mask(shadow[j], victim))
          shadow.erase(shadow.begin() + static_cast<long>(j));
      script.push_back(churn);
    }
  }
  return script;
}

void apply_op(const Op& op, RuleSet& rs, std::vector<TestRule*>& live) {
  switch (op.kind) {
    case Op::Kind::kAdd:
      live.push_back(rs.add(op.match, op.priority, op.id));
      break;
    case Op::Kind::kRemove:
      ASSERT_LT(op.live_index, live.size());
      rs.remove(live[op.live_index]);
      live.erase(live.begin() + static_cast<long>(op.live_index));
      break;
    case Op::Kind::kChurnMask: {
      ASSERT_LT(op.live_index, live.size());
      const Match victim = live[op.live_index]->match();
      for (size_t j = live.size(); j-- > 0;)
        if (same_mask(live[j]->match(), victim)) {
          rs.remove(live[j]);
          live.erase(live.begin() + static_cast<long>(j));
        }
      break;
    }
  }
}

class ClassifierChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassifierChurnTest, EveryCheckpointMatchesNaiveOracle) {
  const uint64_t seed = GetParam();
  const std::vector<Op> script = make_script(seed, 150);

  RuleSet rs;
  std::vector<TestRule*> live;

  size_t next_check = 40;
  size_t applied = 0;
  auto checkpoint = [&](uint64_t salt) {
    ASSERT_EQ(rs.classifier().rule_count(), live.size());
    Rng qrng(seed * 7919 + salt);
    std::vector<FlowKey> pkts;
    for (int q = 0; q < 80; ++q) pkts.push_back(testutil::random_packet(qrng));
    for (const FlowKey& pkt : pkts) {
      FlowWildcards wc;
      const Rule* got = rs.classifier().lookup(pkt, &wc);
      const TestRule* want = rs.naive_lookup(pkt);
      if (want == nullptr) {
        ASSERT_EQ(got, nullptr) << pkt.to_string();
      } else {
        ASSERT_NE(got, nullptr) << pkt.to_string();
        ASSERT_EQ(got->priority(), want->priority()) << pkt.to_string();
      }
      // Wildcard soundness: flipping unconsulted bits must not change the
      // classification the naive oracle would give.
      for (int trial = 0; trial < 3; ++trial) {
        FlowKey mutant = pkt;
        for (size_t w = 0; w < kFlowWords; ++w) {
          const uint64_t flip = qrng.next() & ~wc.w[w];
          if (qrng.chance(0.5)) mutant.w[w] ^= flip;
        }
        const TestRule* mwant = rs.naive_lookup(mutant);
        const std::string why = "unsound wildcards:\n  pkt    " +
                                pkt.to_string() + "\n  mutant " +
                                mutant.to_string() + "\n  wc     " +
                                wc.to_string();
        if (want == nullptr) {
          ASSERT_EQ(mwant, nullptr) << why;
        } else {
          ASSERT_NE(mwant, nullptr) << why;
          ASSERT_EQ(mwant->priority(), want->priority()) << why;
        }
      }
    }
  };

  for (const Op& op : script) {
    apply_op(op, rs, live);
    if (++applied >= next_check) {
      checkpoint(applied);
      next_check += 40;
    }
  }
  checkpoint(0xF1'4A);

  // Drain to empty through removals only: the teardown path must retire
  // every subtable all the way down.
  while (!live.empty()) {
    Op rm;
    rm.kind = Op::Kind::kRemove;
    rm.live_index = live.size() - 1;
    apply_op(rm, rs, live);
  }
  EXPECT_EQ(rs.classifier().rule_count(), 0u);
  EXPECT_EQ(rs.classifier().tuple_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClassifierChurnTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606),
                         [](const ::testing::TestParamInfo<uint64_t>& p) {
                           std::string name = "s";
                           name += std::to_string(p.param);
                           return name;
                         });

// Megaflow-cache mode (first_match_only): with disjoint rules the lookup
// must return THE unique match and may stop at it.
TEST(ClassifierFirstMatchTest, DisjointRulesReturnTheUniqueMatch) {
  ClassifierConfig cfg;
  cfg.first_match_only = true;
  RuleSet rs(cfg);
  int id = 0;
  // Two mask shapes with disjoint nw_dst value ranges so no packet can
  // match rules from both shapes.
  for (uint8_t v = 0; v < 8; ++v)
    rs.add(MatchBuilder().ip().nw_dst(Ipv4(10, 1, 0, v)), 1, id++);
  for (uint8_t v = 0; v < 8; ++v)
    rs.add(MatchBuilder()
               .tcp()
               .nw_dst(Ipv4(10, 2, 0, v))
               .tp_dst(static_cast<uint16_t>(80 + v)),
           1, id++);
  Rng rng(13);
  for (int q = 0; q < 200; ++q) {
    FlowKey pkt;
    pkt.set_eth_type(ethertype::kIpv4);
    pkt.set_nw_proto(ipproto::kTcp);
    if (rng.chance(0.5)) {
      pkt.set_nw_dst(Ipv4(10, 1, 0, static_cast<uint8_t>(rng.uniform(10))));
    } else {
      pkt.set_nw_dst(Ipv4(10, 2, 0, static_cast<uint8_t>(rng.uniform(10))));
      pkt.set_tp_dst(static_cast<uint16_t>(80 + rng.uniform(10)));
    }
    const Rule* got = rs.classifier().lookup(pkt);
    const TestRule* want = rs.naive_lookup(pkt);
    if (want == nullptr) {
      ASSERT_EQ(got, nullptr) << pkt.to_string();
    } else {
      ASSERT_NE(got, nullptr) << pkt.to_string();
      ASSERT_EQ(static_cast<const TestRule*>(got)->id, want->id)
          << pkt.to_string();
    }
  }
}

}  // namespace
}  // namespace ovs
