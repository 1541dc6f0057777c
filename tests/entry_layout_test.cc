// Layout guard for the two datapath entry types. Every fast-path hit reads
// an entry's actions and dead flag and bumps its counters, and the
// wall-clock benchmarks were measured with those fields where they are: a
// layout change has moved a workload's rate before with no per-packet code
// change at all. So the sizes and hot-field offsets are pinned here, and the
// empty DpFlow tag base both entries derive from must add no bytes and sit
// at the entry's own address. A deliberate layout change updates these
// numbers and re-measures the benchmark.
#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>

#include "datapath/datapath.h"
#include "datapath/mt_datapath.h"
#include "packet/match.h"

namespace ovs {

struct EntryLayoutProbe {
  struct Offsets {
    size_t actions, packets, bytes, used_ns, dead;
  };

  template <class E, class F>
  static size_t off(const E& e, const F& field) {
    return static_cast<size_t>(reinterpret_cast<const char*>(&field) -
                               reinterpret_cast<const char*>(&e));
  }
  static Offsets of(const MegaflowEntry& e) {
    return {off(e, e.actions_), off(e, e.packets_), off(e, e.bytes_),
            off(e, e.used_ns_), off(e, e.dead_)};
  }
  static Offsets of(const MtMegaflow& e) {
    return {off(e, e.actions_), off(e, e.packets_), off(e, e.bytes_),
            off(e, e.used_ns_), off(e, e.dead_)};
  }
};

namespace {

template <class E>
bool tag_base_at_entry_address(const E* e) {
  return static_cast<const void*>(static_cast<const DpFlow*>(e)) ==
         static_cast<const void*>(e);
}

TEST(EntryLayout, MegaflowEntryHotFieldsStayPut) {
  static_assert(std::is_empty_v<DpFlow>);
  EXPECT_EQ(sizeof(MegaflowEntry), 624u);
  Datapath dp;
  const MegaflowEntry* e =
      dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(tag_base_at_entry_address(e));
  const EntryLayoutProbe::Offsets o = EntryLayoutProbe::of(*e);
  EXPECT_EQ(o.actions, 288u);
  EXPECT_EQ(o.packets, 376u);
  EXPECT_EQ(o.bytes, 384u);
  EXPECT_EQ(o.used_ns, 392u);
  EXPECT_EQ(o.dead, 400u);
}

TEST(EntryLayout, MtMegaflowHotFieldsStayPut) {
  EXPECT_EQ(sizeof(MtMegaflow), 536u);
  ShardedDatapath dp;
  const MtMegaflow* e =
      dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(tag_base_at_entry_address(e));
  const EntryLayoutProbe::Offsets o = EntryLayoutProbe::of(*e);
  EXPECT_EQ(o.actions, 368u);
  EXPECT_EQ(o.packets, 384u);
  EXPECT_EQ(o.bytes, 392u);
  EXPECT_EQ(o.used_ns, 400u);
  EXPECT_EQ(o.dead, 408u);
}

}  // namespace
}  // namespace ovs
