// OpenFlow-level actions (paper §3.3). These are what controllers program;
// translation (pipeline.h) flattens them into datapath actions (§4.2).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "datapath/dp_actions.h"
#include "packet/flow_key.h"

namespace ovs {

struct OfOutput {
  uint32_t port = 0;
  bool operator==(const OfOutput&) const = default;
};

// Stop processing; forward nowhere.
struct OfDrop {
  bool operator==(const OfDrop&) const = default;
};

// Consult another table (or the same one), then continue with the remaining
// actions — the Open vSwitch resubmit extension that solved the
// cross-product problem (§3.3).
struct OfResubmit {
  uint8_t table = 0;
  bool operator==(const OfResubmit&) const = default;
};

// Write a field (including the reg0..reg3 scratch "registers" of §3.3).
struct OfSetField {
  FieldId field = FieldId::kReg0;
  uint64_t value = 0;
  bool operator==(const OfSetField&) const = default;
};

// Encapsulate toward a remote hypervisor over a tunnel port.
struct OfTunnel {
  uint32_t port = 0;
  uint64_t tun_id = 0;
  bool operator==(const OfTunnel&) const = default;
};

// Send to the (local or remote) controller (§8.1).
struct OfController {
  uint32_t reason = 0;
  bool operator==(const OfController&) const = default;
};

// Traditional L2 learning-switch processing: learn the source MAC, forward
// to the learned destination port or flood.
struct OfNormal {
  bool operator==(const OfNormal&) const = default;
};

// Connection tracking (§8.1): stamps ct_state into the key and resubmits to
// `next_table`; with commit=true the connection is committed first. `zone`
// selects an independent connection table. NAT: kApply only applies an
// existing binding to the packet (lookup-pure — safe for generated fuzz
// rules); kSrc/kDst additionally request a SNAT/DNAT binding at commit time.
struct OfCt {
  using Nat = CtAction::Nat;

  uint8_t next_table = 0;
  bool commit = false;
  uint16_t zone = 0;
  Nat nat = Nat::kNone;
  uint32_t nat_addr = 0;
  uint16_t nat_port = 0;
  bool operator==(const OfCt&) const = default;
};

using OfAction = std::variant<OfOutput, OfDrop, OfResubmit, OfSetField,
                              OfTunnel, OfController, OfNormal, OfCt>;

struct OfActions {
  std::vector<OfAction> list;

  OfActions() = default;

  static OfActions drop() {
    OfActions a;
    a.list.push_back(OfDrop{});
    return a;
  }

  OfActions& output(uint32_t port) {
    list.push_back(OfOutput{port});
    return *this;
  }
  OfActions& resubmit(uint8_t table) {
    list.push_back(OfResubmit{table});
    return *this;
  }
  OfActions& set_field(FieldId f, uint64_t v) {
    list.push_back(OfSetField{f, v});
    return *this;
  }
  OfActions& set_reg(unsigned i, uint32_t v) {
    return set_field(
        static_cast<FieldId>(static_cast<unsigned>(FieldId::kReg0) + i), v);
  }
  // 802.1Q tagging sugar (bit 12 = tag-present, as in the OVS TCI encoding).
  OfActions& push_vlan(uint16_t vid) {
    return set_field(FieldId::kVlanTci, 0x1000u | (vid & 0x0fff));
  }
  OfActions& pop_vlan() { return set_field(FieldId::kVlanTci, 0); }
  OfActions& tunnel(uint32_t port, uint64_t tun_id) {
    list.push_back(OfTunnel{port, tun_id});
    return *this;
  }
  OfActions& controller(uint32_t reason = 0) {
    list.push_back(OfController{reason});
    return *this;
  }
  OfActions& normal() {
    list.push_back(OfNormal{});
    return *this;
  }
  OfActions& ct(uint8_t next_table, bool commit = false, uint16_t zone = 0) {
    OfCt c;
    c.next_table = next_table;
    c.commit = commit;
    c.zone = zone;
    list.push_back(c);
    return *this;
  }
  // ct with NAT: kApply to rewrite per existing bindings, kSrc/kDst (with
  // commit) to create a binding toward (addr, port).
  OfActions& ct_nat(uint8_t next_table, bool commit, OfCt::Nat nat,
                    uint32_t addr = 0, uint16_t port = 0, uint16_t zone = 0) {
    OfCt c;
    c.next_table = next_table;
    c.commit = commit;
    c.zone = zone;
    c.nat = nat;
    c.nat_addr = addr;
    c.nat_port = port;
    list.push_back(c);
    return *this;
  }

  bool operator==(const OfActions&) const = default;

  std::string to_string() const;
};

}  // namespace ovs
