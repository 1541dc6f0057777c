// The "field zoo": parameterized sweeps exercising every matchable field
// individually — single-field rules must match exactly on their field,
// produce single-field megaflows, and every prefix length of every
// prefix-capable field must behave.
#include <gtest/gtest.h>

#include "classifier/classifier.h"
#include "test_util.h"
#include "util/rng.h"

namespace ovs {
namespace {

using testutil::RuleSet;

// Distinct test values per field (non-zero, within width).
uint64_t test_value(FieldId f) {
  const FieldInfo& fi = field_info(f);
  const uint64_t v = 0x5aa5c33c0f69ULL;
  if (fi.width >= 64) return v;
  return (v & ((uint64_t{1} << fi.width) - 1)) | 1;
}

class FieldZooTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FieldZooTest, SingleFieldRuleSemantics) {
  const auto f = static_cast<FieldId>(GetParam());
  const FieldInfo& fi = field_info(f);
  SCOPED_TRACE(fi.name);

  RuleSet rs;
  Match m;
  m.mask.set_exact(f);
  if (fi.width == 128) {
    m.key.w[fi.word] = 0x1111222233334444ULL;
    m.key.w[fi.word + 1] = 0x5555666677778888ULL;
  } else {
    m.key.set(f, test_value(f));
  }
  rs.add(m, 10, 1);

  // Matching packet.
  FlowKey hit;
  if (fi.width == 128) {
    hit.w[fi.word] = 0x1111222233334444ULL;
    hit.w[fi.word + 1] = 0x5555666677778888ULL;
  } else {
    hit.set(f, test_value(f));
  }
  // Noise in *other* fields must not matter.
  Rng rng(GetParam());
  for (size_t i = 0; i < kNumFields; ++i) {
    const auto other = static_cast<FieldId>(i);
    const FieldInfo& ofi = field_info(other);
    if (ofi.word == fi.word || (fi.width == 128 && ofi.word == fi.word + 1) ||
        (ofi.width == 128 && ofi.word + 1 == fi.word))
      continue;  // same word: could clobber
    if (ofi.width != 128) hit.set(other, rng.next());
  }

  FlowWildcards wc;
  const Rule* r = rs.classifier().lookup(hit, &wc);
  ASSERT_NE(r, nullptr);
  // The megaflow consults exactly this field.
  EXPECT_TRUE(wc.is_exact(f));
  int fields_set = 0;
  for (size_t i = 0; i < kNumFields; ++i)
    if (wc.has_field(static_cast<FieldId>(i))) ++fields_set;
  EXPECT_EQ(fields_set, fi.width == 128 ? 1 : fields_set) << wc.to_string();

  // Non-matching packet (flip the low bit of the field).
  FlowKey miss = hit;
  if (fi.width == 128)
    miss.w[fi.word + 1] ^= 1;
  else
    miss.set(f, test_value(f) ^ 1);
  EXPECT_EQ(rs.classifier().lookup(miss), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, FieldZooTest, ::testing::Range<size_t>(0, kNumFields),
    [](const ::testing::TestParamInfo<size_t>& p) {
      return std::string(field_info(static_cast<FieldId>(p.param)).name);
    });

// Prefix sweep: every prefix length of the IPv4 destination behaves, and
// the trie keeps megaflows no wider than necessary.
class PrefixSweepTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrefixSweepTest, Ipv4DstPrefixLength) {
  const unsigned len = GetParam();
  RuleSet rs;
  const Ipv4 net(0xC0A80000u & ipv4_prefix_mask(len));  // 192.168/16 base
  rs.add(MatchBuilder().ip().nw_dst_prefix(net, len), 10, 1);

  FlowKey inside;
  inside.set_eth_type(ethertype::kIpv4);
  inside.set_nw_dst(Ipv4(net.value() | (len < 32 ? 1u : 0u)));
  FlowWildcards wc;
  ASSERT_NE(rs.classifier().lookup(inside, &wc), nullptr) << "len " << len;
  const int got = wc.prefix_len(FieldId::kNwDst);
  ASSERT_GE(got, 0);
  EXPECT_LE(static_cast<unsigned>(got), len == 0 ? 32 : len);

  if (len > 0) {
    FlowKey outside = inside;
    // Flip the last bit inside the prefix.
    outside.set_nw_dst(
        Ipv4(inside.nw_dst().value() ^ (1u << (32 - len))));
    EXPECT_EQ(rs.classifier().lookup(outside), nullptr) << "len " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PrefixSweepTest,
                         ::testing::Range(0u, 33u));

// Stage-boundary sweep: a rule whose mask stops at each stage terminates
// staged lookups of non-matching packets at exactly that stage.
struct StageCase {
  const char* name;
  FieldId field;
  Stage expected_stage;
};

// Without a printer gtest dumps the raw bytes (a pointer plus padding) into
// the listed test name, which then changes from build to build.
void PrintTo(const StageCase& sc, std::ostream* os) { *os << sc.name; }

class StageBoundaryTest : public ::testing::TestWithParam<StageCase> {};

TEST_P(StageBoundaryTest, MissTerminatesAtFieldStage) {
  const StageCase& sc = GetParam();
  SCOPED_TRACE(sc.name);
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.staged_lookup = true;
  RuleSet rs(cfg);

  // Rule matches metadata=1 plus the stage field; the packet diverges only
  // in the stage field, so the miss is detected exactly at its stage.
  Match m;
  m.mask.set_exact(FieldId::kTunId);
  m.key.set_tun_id(1);
  m.mask.set_exact(sc.field);
  m.key.set(sc.field, 1);
  m.mask.set_exact(FieldId::kTpDst);  // force the tuple to span to L4
  m.key.set_tp_dst(80);
  rs.add(m, 5, 1);

  FlowKey pkt;
  pkt.set_tun_id(1);
  pkt.set(sc.field, 2);  // diverge at the stage under test
  pkt.set_tp_dst(80);

  FlowWildcards wc;
  EXPECT_EQ(rs.classifier().lookup(pkt, &wc), nullptr);
  // Fields of LATER stages must stay wildcarded.
  if (sc.expected_stage < Stage::kL4) {
    EXPECT_FALSE(wc.has_field(FieldId::kTpDst)) << wc.to_string();
  }
  if (sc.expected_stage < Stage::kL3) {
    EXPECT_FALSE(wc.has_field(FieldId::kNwDst)) << wc.to_string();
  }
  if (sc.expected_stage < Stage::kL2) {
    EXPECT_FALSE(wc.has_field(FieldId::kEthDst)) << wc.to_string();
  }
  EXPECT_EQ(rs.classifier().stats().stage_terminations,
            sc.expected_stage == Stage::kL4 ? 0u : 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Stages, StageBoundaryTest,
    ::testing::Values(
        StageCase{"metadata", FieldId::kMetadata, Stage::kMetadata},
        StageCase{"l2", FieldId::kEthDst, Stage::kL2},
        StageCase{"l3", FieldId::kNwDst, Stage::kL3},
        StageCase{"l4", FieldId::kTpSrc, Stage::kL4}),
    [](const ::testing::TestParamInfo<StageCase>& p) {
      return p.param.name;
    });

}  // namespace
}  // namespace ovs
