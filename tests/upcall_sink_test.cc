// The miss path, with one and with four datapath workers: the
// upcall sink is the one place a missed packet can go. A miss with no sink,
// like a refusal, is an upcall drop; a delay-faulted upcall is parked and
// reaches the sink only at flush_delayed_upcalls(), counted once.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "datapath/datapath.h"
#include "test_util.h"
#include "util/fault.h"

namespace ovs {
namespace {

using testutil::dp_tcp_pkt;

// 0: one worker shard; 4: four.
class UpcallSinkTest : public ::testing::TestWithParam<size_t> {
 protected:
  UpcallSinkTest()
      : be_(std::make_unique<Datapath>(DatapathConfig{}, GetParam())) {}

  // Every packet misses (no flow is installed); sport keeps them distinct.
  Datapath::RxResult miss(uint16_t sport) {
    return be_->receive(dp_tcp_pkt(Ipv4(9, 9, 9, 9), sport, 80), 0);
  }

  std::unique_ptr<Datapath> be_;
};

TEST_P(UpcallSinkTest, MissWithoutSinkCountsAsDrop) {
  Datapath& dp = *be_;
  EXPECT_EQ(miss(1).path, Datapath::Path::kMiss);
  EXPECT_EQ(dp.stats().misses, 1u);
  EXPECT_EQ(dp.stats().upcall_drops, 1u);

  {
    testutil::UpcallCollector up(dp, /*cap=*/1);
    miss(2);  // accepted
    miss(3);  // refused: a drop like the sinkless one
    ASSERT_EQ(up.pkts.size(), 1u);
    EXPECT_EQ(up.pkts[0].key.tp_src(), 2u);
    EXPECT_EQ(dp.stats().upcall_drops, 2u);
  }

  miss(4);  // the collector detached: sinkless again
  const Datapath::Stats s = dp.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.upcall_drops, 3u);
}

TEST_P(UpcallSinkTest, DelayedUpcallReachesSinkOnlyAtFlush) {
  Datapath& dp = *be_;
  FaultInjector fault(0xD1);
  fault.script(FaultPoint::kUpcallDelay, {0});  // the first miss only
  dp.set_fault_injector(&fault);
  testutil::UpcallCollector up(dp);

  miss(1);  // parked
  EXPECT_TRUE(up.pkts.empty());
  EXPECT_EQ(dp.delayed_upcall_count(), 1u);

  miss(2);  // not delayed: overtakes the parked one
  ASSERT_EQ(up.pkts.size(), 1u);
  EXPECT_EQ(up.pkts[0].key.tp_src(), 2u);

  dp.flush_delayed_upcalls();
  ASSERT_EQ(up.pkts.size(), 2u);
  EXPECT_EQ(up.pkts[1].key.tp_src(), 1u);
  EXPECT_EQ(dp.delayed_upcall_count(), 0u);

  dp.flush_delayed_upcalls();  // nothing left to release
  EXPECT_EQ(up.pkts.size(), 2u);
  const Datapath::Stats s = dp.stats();
  EXPECT_EQ(s.upcalls_delayed, 1u);
  EXPECT_EQ(s.upcall_drops, 0u);
  EXPECT_EQ(s.misses, 2u);
  dp.set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Backends, UpcallSinkTest, ::testing::Values(0, 4),
                         [](const ::testing::TestParamInfo<size_t>& p) {
                           return "workers" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace ovs
