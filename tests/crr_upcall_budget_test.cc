// Upcall budget of stateful CRR connections (DESIGN.md §15, "What a flow
// depends on"). The datapath runs conntrack and recirculates, so neither
// stage's megaflow consults the connection: on the stateful NVP pipeline
// the megaflows are per VM pair and direction, never per connection, and
// once they are set up, connections cost no upcalls at all. The counts are
// deterministic: this is a count, not a clock.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "packet/parser.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

constexpr uint16_t kSyn = 0x002, kAck = 0x010, kPshAck = 0x018,
                   kFinAck = 0x011, kRst = 0x004, kSynAck = kSyn | kAck;

class CrrUpcallBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    NvpConfig nc;
    nc.n_tenants = 4;
    nc.vms_per_tenant = 4;
    nc.acl_tenant_fraction = 1.0;
    nc.stateful_acl_tenants = true;
    topo_ = install_nvp_pipeline(sw_, nc);
    sw_.set_output_handler([this](uint32_t, const Packet&) { ++outputs_; });
  }

  // A wire frame of connection `conn` (client and server VMs of one
  // tenant), built and parsed as the benchmark's CRR frames are.
  Packet frame(size_t conn, bool from_client, uint16_t flags,
               uint16_t payload = 0) const {
    const NvpVm& c = topo_.vms[conn % 4 * 4 + conn / 4 % 2];
    const NvpVm& s = topo_.vms[conn % 4 * 4 + 2 + conn / 8 % 2];
    const uint16_t eph = static_cast<uint16_t>(40000 + conn);
    constexpr uint16_t kSvc = 8000;
    TcpParams p;
    p.eth_src = from_client ? c.mac : s.mac;
    p.eth_dst = from_client ? s.mac : c.mac;
    p.ip_src = from_client ? c.ip : s.ip;
    p.ip_dst = from_client ? s.ip : c.ip;
    p.sport = from_client ? eph : kSvc;
    p.dport = from_client ? kSvc : eph;
    p.flags = flags;
    p.payload_len = payload;
    auto pkt = parse_to_packet(build_tcp_ipv4(p),
                               from_client ? c.port : s.port);
    EXPECT_TRUE(pkt.has_value());
    return *pkt;
  }

  // The 8 frames of one CRR transaction in wire order: connect, a 1-byte
  // request, a 1-byte response, disconnect.
  std::array<Packet, 8> crr_transaction(size_t conn) const {
    return {frame(conn, true, kSyn),       frame(conn, false, kSynAck),
            frame(conn, true, kAck),       frame(conn, true, kPshAck, 1),
            frame(conn, false, kPshAck, 1), frame(conn, true, kFinAck),
            frame(conn, false, kFinAck),   frame(conn, true, kAck)};
  }

  // Sends one burst and handles its upcalls; returns the upcalls handled.
  uint64_t send(const std::vector<Packet>& burst) {
    const uint64_t before = sw_.counters().upcalls_handled;
    sw_.inject_batch(burst, now_);
    sw_.handle_upcalls(now_);
    now_ += 1000;
    return sw_.counters().upcalls_handled - before;
  }
  uint64_t send(const Packet& p) { return send(std::vector<Packet>{p}); }

  Switch sw_{SwitchConfig{}};
  NvpTopology topo_;
  uint64_t now_ = 1;
  uint64_t outputs_ = 0;
};

// The first transaction between two VMs costs four upcalls and four
// setups: each direction's two stages — the pre-ct megaflow and the post-ct
// one — in the SYN's and the SYN-ACK's upcalls, each of which finishes its
// recirculation in the same handle_upcalls call. Every later frame, and
// every later transaction between the pair, rides those four megaflows.
TEST_F(CrrUpcallBudget, TransactionCostsFourUpcallsAndSetups) {
  constexpr std::array<uint64_t, 8> kFirst = {2, 2, 0, 0, 0, 0, 0, 0};
  constexpr std::array<uint64_t, 8> kLater = {};
  for (size_t conn = 0; conn < 32; ++conn) {
    SCOPED_TRACE("connection " + std::to_string(conn));
    const uint64_t setups0 = sw_.counters().flow_setups;
    const uint64_t out0 = outputs_;
    const std::array<Packet, 8> txn = crr_transaction(conn);
    std::array<uint64_t, 8> upcalls{};
    for (size_t k = 0; k < txn.size(); ++k) upcalls[k] = send(txn[k]);
    // Connections 0..15 cover the fixture's 16 client/server pairs.
    EXPECT_EQ(upcalls, conn < 16 ? kFirst : kLater);
    EXPECT_EQ(sw_.counters().flow_setups - setups0, conn < 16 ? 4u : 0u);
    EXPECT_EQ(outputs_ - out0, 8u);  // every frame is delivered
  }
  EXPECT_EQ(sw_.counters().upcalls_dropped, 0u);
  EXPECT_EQ(sw_.backend().flow_count(), 4 * 16u);
}

// Once warm, the slow path does not see connections at all: doubling the
// number of connections adds no upcalls, and every transaction leaves the
// connection table empty.
TEST_F(CrrUpcallBudget, DoublingConnectionsAddsNoUpcalls) {
  // As the benchmark sends them: burst k carries frame k of every
  // connection of a group.
  auto run = [&](size_t first, size_t n) {
    std::vector<std::array<Packet, 8>> txns;
    for (size_t conn = first; conn < first + n; ++conn)
      txns.push_back(crr_transaction(conn));
    uint64_t upcalls = 0;
    for (size_t k = 0; k < 8; ++k) {
      std::vector<Packet> burst;
      for (const auto& t : txns) burst.push_back(t[k]);
      upcalls += send(burst);
    }
    return upcalls;
  };
  // Warm-up: four stages per pair. The group's two connections of a pair
  // miss its first stages in one burst: one upcall installs, the other is
  // a duplicate, and its recirculation hits the stage its twin installed.
  EXPECT_EQ(run(100, 32), 6 * 16u);
  EXPECT_EQ(sw_.counters().flow_setups, 4 * 16u);
  EXPECT_EQ(sw_.counters().setup_dups, 2 * 16u);
  const uint64_t flows = sw_.backend().flow_count();
  EXPECT_EQ(run(200, 32), 0u);
  EXPECT_EQ(run(300, 64), 0u);
  EXPECT_EQ(run(400, 128), 0u);
  EXPECT_EQ(sw_.backend().flow_count(), flows);
  EXPECT_EQ(sw_.conntrack().size(), 0u);
  EXPECT_EQ(outputs_, 8 * (32 + 32 + 64 + 128u));
  EXPECT_EQ(sw_.counters().upcalls_dropped, 0u);
}

TEST_F(CrrUpcallBudget, DataSegmentsNeverUpcall) {
  constexpr size_t kConn = 3;
  ASSERT_EQ(send(frame(kConn, true, kSyn)), 2u);
  ASSERT_EQ(send(frame(kConn, false, kSynAck)), 2u);
  for (int round = 0; round < 4; ++round) {
    for (bool from_client : {true, false}) {
      EXPECT_EQ(send(frame(kConn, from_client, kAck)), 0u);
      EXPECT_EQ(send(frame(kConn, from_client, kPshAck, 1)), 0u);
      EXPECT_EQ(send(frame(kConn, from_client, kPshAck, 100)), 0u);
    }
  }
  EXPECT_EQ(sw_.conntrack().lookup(frame(kConn, true, kAck).key),
            ct_state::kEstablished);
}

TEST_F(CrrUpcallBudget, RstTearsDownWithoutUpcalls) {
  for (bool from_client : {true, false}) {
    SCOPED_TRACE(from_client ? "client RST" : "server RST");
    const size_t conn = from_client ? 5 : 6;
    send(frame(conn, true, kSyn));
    send(frame(conn, false, kSynAck));
    ASSERT_EQ(send(frame(conn, true, kAck)), 0u);
    const FlowKey key = frame(conn, true, kAck).key;
    ASSERT_EQ(sw_.conntrack().lookup(key), ct_state::kEstablished);
    EXPECT_EQ(send(frame(conn, from_client, kRst)), 0u);
    EXPECT_EQ(sw_.conntrack().lookup(key), ct_state::kNew);
  }
}

}  // namespace
}  // namespace ovs
