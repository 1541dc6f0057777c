// Seeded scenario generation for the differential fuzz harness.
//
// A Scenario is a deterministic interleaving of every seam the switch
// composes: packets, flow-table mutations, port churn, fault-injector
// window arms, userspace crashes, and revalidation ticks. The generator is
// a pure function of (seed, config) — the same seed always yields the same
// event list — and every scenario round-trips through a line-oriented text
// format so minimized reproducers can live in tests/corpus/ and replay as
// ordinary ctest cases.
//
// Generated rules deliberately avoid NORMAL: with explicit output /
// set_field / tunnel / controller / drop / resubmit actions plus ct —
// lookup-only (ct(table=N), ct(table=N,nat)) and committing
// (ct(commit,table=N), ct(commit,nat,table=N)) — translation is a pure
// function of the flow tables, which the OracleSwitch rebuilds from the
// mutation log alone, and a packet's fate is a pure function of the tables
// and the connection table its ct finds. The datapath runs ct on every
// packet, so the switch commits per packet; the oracle mirrors each ct the
// switch ran (see oracle_switch.h). Controller writes (ct_commit /
// ct_remove events) change the connection table too, on both sides in
// lockstep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "packet/packet.h"
#include "util/fault.h"

namespace ovs::fuzz {

struct FuzzEvent {
  enum class Kind : uint8_t {
    kPacket,       // inject one packet (pkt)
    kAddFlow,      // ovs-ofctl add-flow text (text)
    kDelFlows,     // loose-match delete spec (text; may be empty)
    kAddPort,      // (port)
    kRemovePort,   // (port)
    kRevalTick,    // advance one tick and run maintenance
    kAdvanceTime,  // advance the replay clock by dt_ns
    kFaultWindow,  // arm `fault` for the next `fault_count` occurrences
    kCrash,        // kill the userspace daemon (datapath survives)
    kCtCommit,     // commit pkt.key's connection (optionally with NAT)
    kCtRemove,     // tear pkt.key's connection down
  };

  Kind kind = Kind::kPacket;
  Packet pkt;             // kPacket; kCtCommit/kCtRemove carry the 5-tuple
                          // in pkt.key (size_bytes unused)
  std::string text;       // kAddFlow / kDelFlows
  uint32_t port = 0;      // kAddPort / kRemovePort
  uint64_t dt_ns = 0;     // kAdvanceTime
  FaultPoint fault = FaultPoint::kUpcallDrop;  // kFaultWindow
  uint32_t fault_count = 0;                    // kFaultWindow
  uint16_t ct_zone = 0;       // kCtCommit / kCtRemove
  bool ct_nat = false;        // kCtCommit: carries a NAT binding
  bool ct_nat_src = true;     // SNAT (else DNAT)
  uint32_t ct_nat_addr = 0;
  uint16_t ct_nat_port = 0;

  std::string to_line() const;
  // Parses one serialized line; returns false (and leaves *out untouched)
  // on malformed input.
  static bool from_line(const std::string& line, FuzzEvent* out);
};

struct Scenario {
  uint64_t seed = 0;
  std::vector<FuzzEvent> events;

  // True when any event can make packet outcomes config-dependent (fault
  // windows, crashes): the runner then accepts dropped/duplicated traces.
  bool has_faults() const;
  // Fault windows only; crashes fully converge by restart + reconcile, so a
  // crash-only scenario still gets strict end-of-run probe checking.
  bool has_fault_windows() const;
  bool has_crashes() const;
  size_t packet_count() const;

  // One event per line, '#' comments, leading "seed N". deserialize() is
  // the exact inverse of serialize() and also accepts hand-edited files.
  std::string serialize() const;
  static bool deserialize(const std::string& text, Scenario* out);
};

// Event-mix weights (normalized internally; relative magnitudes matter).
struct GeneratorWeights {
  double packet = 0.65;
  double add_flow = 0.06;     // includes reroutes shadowing earlier rules
  double del_flows = 0.02;
  double port_churn = 0.03;
  double reval_tick = 0.09;
  double advance = 0.05;
  double fault = 0.04;
  double crash = 0.01;
  double ct_commit = 0.05;    // connection churn: commits (NAT on the
                              // NAT-designated service port)
  double ct_remove = 0.02;    // explicit teardowns
};

struct GeneratorConfig {
  size_t n_events = 120;  // after the fixed port/rule prologue
  size_t n_ports = 6;
  size_t n_conns = 24;    // connection pool the packet events draw from
  GeneratorWeights weights;
};

// Deterministic: generate_scenario(s, c) is a pure function of (s, c).
Scenario generate_scenario(uint64_t seed, const GeneratorConfig& cfg = {});

}  // namespace ovs::fuzz
