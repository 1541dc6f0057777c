// Tests for the flow key / mask data model.
#include "packet/flow_key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "datapath/datapath.h"
#include "packet/match.h"
#include "util/miniflow.h"
#include "util/rng.h"

namespace ovs {
namespace {

TEST(FlowKeyTest, FieldRoundTripAllFields) {
  // Every single-word field must round-trip through get/set without
  // clobbering neighbours.
  for (size_t i = 0; i < kNumFields; ++i) {
    const auto f = static_cast<FieldId>(i);
    const FieldInfo& fi = field_info(f);
    if (fi.width == 128) continue;  // typed accessors tested below
    FlowKey k;
    const uint64_t v = 0xa5a5a5a5a5a5a5a5ULL &
                       ((fi.width == 64) ? ~uint64_t{0}
                                         : ((uint64_t{1} << fi.width) - 1));
    k.set(f, v);
    EXPECT_EQ(k.get(f), v) << fi.name;
    k.set(f, 0);
    EXPECT_TRUE(k.is_zero()) << fi.name;
  }
}

TEST(FlowKeyTest, TypedAccessors) {
  FlowKey k;
  k.set_in_port(7);
  k.set_eth_src(EthAddr(1, 2, 3, 4, 5, 6));
  k.set_eth_dst(kEthBroadcast);
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_src(Ipv4(10, 0, 0, 1));
  k.set_nw_dst(Ipv4(10, 0, 0, 2));
  k.set_nw_proto(ipproto::kTcp);
  k.set_tp_src(12345);
  k.set_tp_dst(80);
  k.set_ipv6_src(Ipv6(0x1111, 0x2222));
  k.set_reg(2, 99);
  k.set_metadata(0xfeed);
  k.set_tun_id(42);

  EXPECT_EQ(k.in_port(), 7u);
  EXPECT_EQ(k.eth_src(), EthAddr(1, 2, 3, 4, 5, 6));
  EXPECT_TRUE(k.eth_dst().is_broadcast());
  EXPECT_EQ(k.eth_type(), ethertype::kIpv4);
  EXPECT_EQ(k.nw_src(), Ipv4(10, 0, 0, 1));
  EXPECT_EQ(k.nw_dst(), Ipv4(10, 0, 0, 2));
  EXPECT_EQ(k.nw_proto(), ipproto::kTcp);
  EXPECT_EQ(k.tp_src(), 12345);
  EXPECT_EQ(k.tp_dst(), 80);
  EXPECT_EQ(k.ipv6_src(), Ipv6(0x1111, 0x2222));
  EXPECT_EQ(k.reg(2), 99u);
  EXPECT_EQ(k.metadata(), 0xfeedu);
  EXPECT_EQ(k.tun_id(), 42u);
}

TEST(FlowKeyTest, FieldsDoNotOverlap) {
  // Setting each field to all-ones one at a time must never disturb others.
  for (size_t i = 0; i < kNumFields; ++i) {
    FlowMask m;
    m.set_exact(static_cast<FieldId>(i));
    for (size_t j = 0; j < kNumFields; ++j) {
      if (i == j) continue;
      // The intersection of distinct field masks must be empty.
      FlowMask mj;
      mj.set_exact(static_cast<FieldId>(j));
      for (size_t w = 0; w < kFlowWords; ++w)
        EXPECT_EQ(m.w[w] & mj.w[w], 0u)
            << field_info(static_cast<FieldId>(i)).name << " vs "
            << field_info(static_cast<FieldId>(j)).name;
    }
  }
}

TEST(FlowMaskTest, PrefixMask) {
  FlowMask m;
  m.set_prefix(FieldId::kNwDst, 24);
  EXPECT_EQ(m.prefix_len(FieldId::kNwDst), 24);
  EXPECT_TRUE(m.has_field(FieldId::kNwDst));
  EXPECT_FALSE(m.is_exact(FieldId::kNwDst));
  m.set_prefix(FieldId::kNwDst, 32);
  EXPECT_TRUE(m.is_exact(FieldId::kNwDst));
}

TEST(FlowMaskTest, PrefixLenDetectsNonPrefix) {
  FlowMask m;
  m.set_exact(FieldId::kNwSrc);
  EXPECT_EQ(m.prefix_len(FieldId::kNwSrc), 32);
  // Punch a hole: no longer a prefix.
  m.w[field_info(FieldId::kNwSrc).word] &=
      ~(uint64_t{1} << (field_info(FieldId::kNwSrc).shift + 16));
  EXPECT_EQ(m.prefix_len(FieldId::kNwSrc), -1);
}

TEST(FlowMaskTest, Ipv6PrefixAcrossWords) {
  FlowMask m;
  m.set_prefix(FieldId::kIpv6Dst, 80);  // 64 + 16 bits
  EXPECT_EQ(m.prefix_len(FieldId::kIpv6Dst), 80);
  EXPECT_EQ(m.w[12], ~uint64_t{0});
  EXPECT_EQ(m.w[13], ~uint64_t{0} << 48);
  FlowMask e;
  e.set_exact(FieldId::kIpv6Dst);
  EXPECT_EQ(e.prefix_len(FieldId::kIpv6Dst), 128);
}

TEST(FlowMaskTest, ClampPrefix) {
  FlowMask m;
  m.set_exact(FieldId::kNwDst);
  m.set_exact(FieldId::kEthType);
  m.clamp_prefix(FieldId::kNwDst, 16);
  EXPECT_EQ(m.prefix_len(FieldId::kNwDst), 16);
  EXPECT_TRUE(m.is_exact(FieldId::kEthType));  // other fields untouched
}

TEST(FlowMaskTest, LastStage) {
  FlowMask m;
  EXPECT_EQ(m.last_stage(), 0u);  // empty mask occupies one stage
  m.set_exact(FieldId::kInPort);
  EXPECT_EQ(m.last_stage(), 0u);
  m.set_exact(FieldId::kEthDst);
  EXPECT_EQ(m.last_stage(), 1u);
  m.set_exact(FieldId::kNwDst);
  EXPECT_EQ(m.last_stage(), 2u);
  m.set_exact(FieldId::kTpDst);
  EXPECT_EQ(m.last_stage(), 3u);
}

TEST(FlowMaskTest, StageLayoutMatchesPaperOrder) {
  // Metadata, L2, L3, L4 — "in decreasing order of traffic granularity".
  EXPECT_EQ(stage_of_word(field_info(FieldId::kInPort).word),
            Stage::kMetadata);
  EXPECT_EQ(stage_of_word(field_info(FieldId::kTunId).word),
            Stage::kMetadata);
  EXPECT_EQ(stage_of_word(field_info(FieldId::kEthSrc).word), Stage::kL2);
  EXPECT_EQ(stage_of_word(field_info(FieldId::kEthType).word), Stage::kL2);
  EXPECT_EQ(stage_of_word(field_info(FieldId::kNwDst).word), Stage::kL3);
  EXPECT_EQ(stage_of_word(field_info(FieldId::kIpv6Src).word), Stage::kL3);
  EXPECT_EQ(stage_of_word(field_info(FieldId::kTpDst).word), Stage::kL4);
}

TEST(MaskedOpsTest, MaskedEqualAndHashAgree) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    FlowKey pkt, key;
    FlowMask mask;
    for (size_t w = 0; w < kFlowWords; ++w) {
      pkt.w[w] = rng.next();
      mask.w[w] = rng.chance(0.5) ? rng.next() : 0;
    }
    key = pkt;
    apply_mask(key, mask);
    EXPECT_TRUE(masked_equal(pkt, key, mask));
    EXPECT_EQ(hash_masked_range(pkt, mask, 0, kFlowWords, 0),
              hash_masked_range(key, mask, 0, kFlowWords, 0));
    // Perturb a masked bit -> inequality.
    FlowKey pkt2 = pkt;
    size_t w = rng.uniform(kFlowWords);
    if (mask.w[w] != 0) {
      // Pick one set mask bit.
      uint64_t bit = mask.w[w] & (~mask.w[w] + 1);
      pkt2.w[w] ^= bit;
      EXPECT_FALSE(masked_equal(pkt2, key, mask));
    }
    // Perturb an unmasked bit -> still equal.
    FlowKey pkt3 = pkt;
    if (~mask.w[w] != 0) {
      uint64_t bit = ~mask.w[w] & (mask.w[w] + 1);
      if (bit != 0) {
        pkt3.w[w] ^= bit;
        EXPECT_TRUE(masked_equal(pkt3, key, mask));
      }
    }
  }
}

TEST(MaskedOpsTest, IncrementalHashEqualsOneShot) {
  Rng rng(123);
  FlowKey pkt;
  FlowMask mask;
  for (size_t w = 0; w < kFlowWords; ++w) {
    pkt.w[w] = rng.next();
    mask.w[w] = rng.next();
  }
  const uint64_t one_shot = hash_masked_range(pkt, mask, 0, kFlowWords, 0);
  uint64_t h = 0;
  size_t from = 0;
  for (size_t s = 0; s < kNumStages; ++s) {
    h = hash_masked_range(pkt, mask, from, kStageEnd[s], h);
    from = kStageEnd[s];
  }
  EXPECT_EQ(h, one_shot);
}

// Random mask with some all-zero words, so stages come out empty, sparse
// and full across iterations.
FlowMask random_sparse_mask(Rng& rng) {
  FlowMask mask;
  for (size_t w = 0; w < kFlowWords; ++w)
    mask.w[w] = rng.chance(0.3) ? rng.next() : 0;
  return mask;
}

TEST(FlowKeyHashTest, StageAccumulatorsFinishToFullHash) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const FlowMask mask = random_sparse_mask(rng);
    const MiniflowSchema schema(mask);
    FlowKey pkt;
    for (uint64_t& w : pkt.w) w = rng.next();
    uint64_t acc = 0;
    for (size_t s = 0; s < kNumStages; ++s)
      acc = schema.hash_stage(pkt, s, acc);
    EXPECT_EQ(hash_finish(acc), schema.full_hash(pkt));
    EXPECT_EQ(acc, hash_masked_range(pkt, mask, 0, kFlowWords, 0));
    // Bits outside the mask do not reach the hash.
    FlowKey masked = pkt;
    apply_mask(masked, mask);
    EXPECT_EQ(schema.full_hash(masked), schema.full_hash(pkt));
  }
}

TEST(FlowKeyHashTest, EmcSetLoadNearUniformOnSequentialTuples) {
  // 64k 5-tuples that differ in one field by +1 each, spread over the EMC's
  // sets by (hash >> 32). The mean load is 16. A uniformly random placement
  // already reaches a max of 32 (its median max; it exceeds 32 in ~40% of
  // draws), so the bound is 2x that max. The chi-square bound (expected
  // 4095 +- 91 for random placement) catches clumping that a max alone
  // misses, such as half the sets left empty (chi-square ~65k).
  constexpr size_t kSets = DatapathConfig{}.microflow_sets;
  constexpr size_t kKeys = 65536;
  constexpr double kMean = static_cast<double>(kKeys) / kSets;
  const FlowKey base = [] {
    FlowKey k;
    k.set_in_port(1);
    k.set_eth_type(ethertype::kIpv4);
    k.set_nw_proto(ipproto::kTcp);
    k.set_nw_src(Ipv4(10, 0, 0, 1));
    k.set_nw_dst(Ipv4(10, 1, 0, 1));
    k.set_tp_src(40000);
    k.set_tp_dst(80);
    return k;
  }();
  for (const FieldId f :
       {FieldId::kTpSrc, FieldId::kTpDst, FieldId::kNwSrc, FieldId::kNwDst}) {
    const char* name = field_info(f).name;
    std::vector<size_t> load(kSets, 0);
    for (uint32_t i = 0; i < kKeys; ++i) {
      FlowKey k = base;
      k.set(f, k.get(f) + i);
      ++load[(k.hash() >> 32) & (kSets - 1)];
    }
    double chi2 = 0;
    for (size_t l : load) chi2 += (l - kMean) * (l - kMean) / kMean;
    EXPECT_LE(*std::max_element(load.begin(), load.end()), 2 * 32u) << name;
    EXPECT_LT(chi2, 2.0 * (kSets - 1)) << name;
  }
}

TEST(MatchBuilderTest, BuildsNormalizedMatch) {
  Match m = MatchBuilder().tcp().nw_dst_prefix(Ipv4(9, 1, 1, 99), 24).tp_dst(80);
  EXPECT_TRUE(m.mask.is_exact(FieldId::kEthType));
  EXPECT_TRUE(m.mask.is_exact(FieldId::kNwProto));
  EXPECT_EQ(m.mask.prefix_len(FieldId::kNwDst), 24);
  // Key must be pre-masked: host bits cleared.
  EXPECT_EQ(m.key.nw_dst(), Ipv4(9, 1, 1, 0));

  FlowKey pkt;
  pkt.set_eth_type(ethertype::kIpv4);
  pkt.set_nw_proto(ipproto::kTcp);
  pkt.set_nw_dst(Ipv4(9, 1, 1, 42));
  pkt.set_tp_dst(80);
  pkt.set_tp_src(55555);
  EXPECT_TRUE(m.matches(pkt));
  pkt.set_nw_dst(Ipv4(9, 1, 2, 42));
  EXPECT_FALSE(m.matches(pkt));
}

TEST(FormatTest, KeyAndMaskToString) {
  FlowKey k;
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(ipproto::kTcp);
  k.set_nw_dst(Ipv4(1, 2, 3, 4));
  const std::string s = k.to_string();
  EXPECT_NE(s.find("dl_type=0x0800"), std::string::npos);
  EXPECT_NE(s.find("nw_dst=1.2.3.4"), std::string::npos);

  FlowMask m;
  m.set_exact(FieldId::kEthType);
  m.set_prefix(FieldId::kNwDst, 16);
  const std::string ms = m.to_string();
  EXPECT_NE(ms.find("eth_type=exact"), std::string::npos);
  EXPECT_NE(ms.find("nw_dst=/16"), std::string::npos);
}

}  // namespace
}  // namespace ovs
