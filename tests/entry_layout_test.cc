// Layout guard for the datapath entry. Every fast-path hit reads an entry's
// actions and dead flag and bumps its counters, and the wall-clock
// benchmarks were measured with those fields where they are: a layout
// change has moved a workload's rate before with no per-packet code change
// at all. So the size and hot-field offsets are pinned here. A deliberate
// layout change updates these numbers and re-measures the benchmark.
#include <gtest/gtest.h>

#include <cstddef>

#include "datapath/datapath.h"
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
};

namespace {

TEST(EntryLayout, MegaflowEntryHotFieldsStayPut) {
  EXPECT_EQ(sizeof(MegaflowEntry), 624u);
  Datapath dp;
  const MegaflowEntry* e =
      dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  ASSERT_NE(e, nullptr);
  const EntryLayoutProbe::Offsets o = EntryLayoutProbe::of(*e);
  EXPECT_EQ(o.actions, 288u);
  EXPECT_EQ(o.packets, 376u);
  EXPECT_EQ(o.bytes, 384u);
  EXPECT_EQ(o.used_ns, 392u);
  EXPECT_EQ(o.dead, 400u);
}

}  // namespace
}  // namespace ovs
