// Engine-equivalence property tests for the classifier backend seam: every
// engine (staged TSS reference, chained-tuple) must produce
// identical winners under identical rule churn, generate sound wildcards,
// and return batch results byte-identical to its own scalar path. The
// scripted-operation approach builds ONE deterministic op sequence and
// applies it to one RuleSet per engine, so divergence is attributable to
// the engine and not to generator drift.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "classifier/chain_engine.h"
#include "classifier/classifier.h"
#include "classifier/cls_backend.h"
#include "test_util.h"

namespace ovs {
namespace {

using testutil::RuleSet;
using testutil::TestRule;

constexpr std::array<ClassifierEngine, 2> kEngines = {
    ClassifierEngine::kStagedTss, ClassifierEngine::kChainedTuple};

bool same_mask(const Match& a, const Match& b) {
  for (size_t w = 0; w < kFlowWords; ++w)
    if (a.mask.w[w] != b.mask.w[w]) return false;
  return true;
}

bool same_wc(const FlowWildcards& a, const FlowWildcards& b) {
  for (size_t w = 0; w < kFlowWords; ++w)
    if (a.w[w] != b.w[w]) return false;
  return true;
}

// One scripted mutation. kChurnMask removes every live rule sharing the
// mask of the rule at live_index — the mask-churn case that forces tuple
// (and chain level / gate) teardown, not just per-rule unlinking.
struct Op {
  enum class Kind { kAdd, kRemove, kChurnMask } kind;
  Match match;  // kAdd only
  int32_t priority = 0;
  int id = 0;
  size_t live_index = 0;  // kRemove/kChurnMask: index into the live vector
};

// Generates a deterministic op script. The shadow live list mirrors what
// each engine's RuleSet will hold at every step so removal indices resolve
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

class ClassifierEngineEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassifierEngineEquivalenceTest, IdenticalChurnIdenticalAnswers) {
  const uint64_t seed = GetParam();
  const std::vector<Op> script = make_script(seed, 150);

  std::vector<std::unique_ptr<RuleSet>> sets;
  std::vector<std::vector<TestRule*>> live(kEngines.size());
  for (ClassifierEngine e : kEngines) {
    ClassifierConfig cfg;
    cfg.engine = e;
    sets.push_back(std::make_unique<RuleSet>(cfg));
  }

  size_t next_check = 40;
  size_t applied = 0;
  auto checkpoint = [&](uint64_t salt) {
    // All sets hold identical rules here; sets[0] provides the oracle.
    for (size_t ei = 1; ei < sets.size(); ++ei)
      ASSERT_EQ(sets[ei]->classifier().rule_count(),
                sets[0]->classifier().rule_count());
    Rng qrng(seed * 7919 + salt);
    std::vector<FlowKey> pkts;
    for (int q = 0; q < 80; ++q) pkts.push_back(testutil::random_packet(qrng));

    for (size_t ei = 0; ei < kEngines.size(); ++ei) {
      SCOPED_TRACE(classifier_engine_name(kEngines[ei]));
      const Classifier& cls = sets[ei]->classifier();
      std::vector<const Rule*> batch(pkts.size());
      std::vector<FlowWildcards> batch_wc(pkts.size());
      cls.lookup_batch(pkts.data(), pkts.size(), batch.data(),
                       batch_wc.data());
      for (size_t q = 0; q < pkts.size(); ++q) {
        FlowWildcards wc;
        const Rule* got = cls.lookup(pkts[q], &wc);
        const TestRule* want = sets[0]->naive_lookup(pkts[q]);
        if (want == nullptr) {
          ASSERT_EQ(got, nullptr) << pkts[q].to_string();
        } else {
          ASSERT_NE(got, nullptr) << pkts[q].to_string();
          ASSERT_EQ(got->priority(), want->priority())
              << pkts[q].to_string();
        }
        // Batch must be byte-identical to this engine's scalar path.
        ASSERT_EQ(batch[q], got) << pkts[q].to_string();
        ASSERT_TRUE(same_wc(batch_wc[q], wc))
            << "batch wc diverges from scalar wc for "
            << pkts[q].to_string();
        // Wildcard soundness: flipping unconsulted bits must not change
        // the classification the naive oracle would give.
        for (int trial = 0; trial < 3; ++trial) {
          FlowKey mutant = pkts[q];
          for (size_t w = 0; w < kFlowWords; ++w) {
            const uint64_t flip = qrng.next() & ~wc.w[w];
            if (qrng.chance(0.5)) mutant.w[w] ^= flip;
          }
          const TestRule* mwant = sets[0]->naive_lookup(mutant);
          if (want == nullptr) {
            ASSERT_EQ(mwant, nullptr)
                << "unsound wildcards:\n  pkt    " << pkts[q].to_string()
                << "\n  mutant " << mutant.to_string() << "\n  wc     "
                << wc.to_string();
          } else {
            ASSERT_NE(mwant, nullptr)
                << "unsound wildcards:\n  pkt    " << pkts[q].to_string()
                << "\n  mutant " << mutant.to_string() << "\n  wc     "
                << wc.to_string();
            ASSERT_EQ(mwant->priority(), want->priority())
                << "unsound wildcards:\n  pkt    " << pkts[q].to_string()
                << "\n  mutant " << mutant.to_string() << "\n  wc     "
                << wc.to_string();
          }
        }
      }
    }
  };

  for (const Op& op : script) {
    for (size_t ei = 0; ei < sets.size(); ++ei)
      apply_op(op, *sets[ei], live[ei]);
    if (++applied >= next_check) {
      checkpoint(applied);
      next_check += 40;
    }
  }
  checkpoint(0xF1'4A);

  // Drain to empty through removals only: the teardown path must stay
  // equivalent all the way down.
  while (!live[0].empty()) {
    Op rm;
    rm.kind = Op::Kind::kRemove;
    rm.live_index = live[0].size() - 1;
    for (size_t ei = 0; ei < sets.size(); ++ei)
      apply_op(rm, *sets[ei], live[ei]);
  }
  for (size_t ei = 0; ei < sets.size(); ++ei) {
    EXPECT_EQ(sets[ei]->classifier().rule_count(), 0u);
    EXPECT_EQ(sets[ei]->classifier().tuple_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClassifierEngineEquivalenceTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606),
                         [](const ::testing::TestParamInfo<uint64_t>& p) {
                           std::string name = "s";
                           name += std::to_string(p.param);
                           return name;
                         });

// Nested prefixes produce masks totally ordered by subsumption: the chain
// engine must coalesce them into ONE chain and cut misses with its guide
// sets instead of probing every mask.
TEST(ClassifierEngineChainTest, NestedPrefixesFormOneChain) {
  ClassifierConfig cfg;
  cfg.engine = ClassifierEngine::kChainedTuple;
  RuleSet rs(cfg);
  // Insert in shuffled plen order so chain placement exercises insertion at
  // interior levels, not just appends.
  const std::array<unsigned, 7> plens = {20, 8, 32, 12, 28, 16, 24};
  int id = 0;
  for (unsigned plen : plens)
    for (uint8_t v = 0; v < 3; ++v)
      rs.add(MatchBuilder().ip().nw_dst_prefix(Ipv4(10, v, v, 1), plen),
             static_cast<int32_t>(plen) * 8 + v, id++);
  ASSERT_EQ(rs.classifier().tuple_count(), 7u);

  const auto& eng =
      static_cast<const ChainedTupleEngine&>(rs.classifier().backend());
  EXPECT_EQ(eng.chain_count(), 1u);
  EXPECT_EQ(eng.max_chain_length(), 7u);

  // Winners across the nesting depths match the naive oracle.
  Rng rng(7);
  rs.classifier().reset_stats();
  for (int q = 0; q < 300; ++q) {
    FlowKey pkt;
    pkt.set_eth_type(ethertype::kIpv4);
    pkt.set_nw_proto(ipproto::kTcp);
    // Half the traffic inside 10/8, half far outside (guide miss at the
    // chain's coarsest level).
    pkt.set_nw_dst(rng.chance(0.5)
                       ? Ipv4(10, static_cast<uint8_t>(rng.uniform(4)),
                              static_cast<uint8_t>(rng.uniform(4)),
                              static_cast<uint8_t>(rng.uniform(3)))
                       : Ipv4(static_cast<uint32_t>(rng.next()) | 0x20000000u));
    const Rule* got = rs.classifier().lookup(pkt);
    const TestRule* want = rs.naive_lookup(pkt);
    if (want == nullptr) {
      ASSERT_EQ(got, nullptr) << pkt.to_string();
    } else {
      ASSERT_NE(got, nullptr) << pkt.to_string();
      ASSERT_EQ(got->priority(), want->priority()) << pkt.to_string();
    }
  }
  // The guide sets did real work: off-chain traffic was cut without
  // probing all 7 masks.
  const ClassifierStats st = rs.classifier().stats();
  EXPECT_GT(st.guide_probes, 0u);
  EXPECT_GT(st.tuples_skipped, 0u);
  EXPECT_LT(st.tuples_searched, st.lookups * 7);
}

// Megaflow-cache mode (first_match_only): with disjoint rules every engine
// must return THE unique match and may stop at it.
TEST(ClassifierEngineFirstMatchTest, DisjointRulesAgreeAcrossEngines) {
  for (ClassifierEngine e : kEngines) {
    SCOPED_TRACE(classifier_engine_name(e));
    ClassifierConfig cfg;
    cfg.engine = e;
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
}

// The chained-tuple SoA batch path must agree with its own scalar path on
// sizes that are not multiples of its kBatchBlock slice, with and without
// wildcard accumulation, and the chain guides must actually skip work.
TEST(ClassifierEngineBatchTest, SoABatchMatchesScalarOnOddSizes) {
  ClassifierConfig cfg;
  cfg.engine = ClassifierEngine::kChainedTuple;
  RuleSet rs(cfg);
  Rng rng(31337);
  int32_t prio = 1;
  for (int i = 0; i < 300; ++i)
    rs.add(testutil::random_match(rng), prio++, i);

  for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{33}, size_t{257}}) {
    std::vector<FlowKey> pkts;
    for (size_t q = 0; q < n; ++q)
      pkts.push_back(testutil::random_packet(rng));
    std::vector<const Rule*> batch(n), scalar(n);
    std::vector<FlowWildcards> batch_wc(n), scalar_wc(n);
    rs.classifier().lookup_batch(pkts.data(), n, batch.data(),
                                 batch_wc.data());
    for (size_t q = 0; q < n; ++q)
      scalar[q] = rs.classifier().lookup(pkts[q], &scalar_wc[q]);
    for (size_t q = 0; q < n; ++q) {
      ASSERT_EQ(batch[q], scalar[q]) << "n=" << n << " q=" << q;
      ASSERT_TRUE(same_wc(batch_wc[q], scalar_wc[q])) << "n=" << n
                                                      << " q=" << q;
    }
    // And the wcs-less entry point.
    std::vector<const Rule*> batch2(n);
    rs.classifier().lookup_batch(pkts.data(), n, batch2.data(), nullptr);
    for (size_t q = 0; q < n; ++q)
      ASSERT_EQ(batch2[q], scalar[q]) << "n=" << n << " q=" << q;
  }
  const ClassifierStats st = rs.classifier().stats();
  EXPECT_GT(st.tuples_skipped, 0u);
}

}  // namespace
}  // namespace ovs
