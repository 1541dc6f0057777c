// Datapath actions: the flattened instruction list a cache entry carries.
//
// When userspace translates a packet through the OpenFlow pipeline it
// collapses the whole pipeline's behaviour into this simple list (§4.2); the
// datapath executes it blindly. Equality is meaningful: the revalidators
// compare installed actions against freshly translated ones (§6).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "packet/flow_key.h"
#include "util/inline_vec.h"

namespace ovs {

struct OutputAction {
  uint32_t port = 0;
  bool operator==(const OutputAction&) const = default;
};

// Rewrite a (single-word) header field before subsequent outputs.
struct SetFieldAction {
  FieldId field = FieldId::kEthSrc;
  uint64_t value = 0;
  bool operator==(const SetFieldAction&) const = default;
};

// Encapsulate in a tunnel to a remote hypervisor (sets tun_id and emits on
// the tunnel port).
struct TunnelAction {
  uint32_t port = 0;
  uint64_t tun_id = 0;
  bool operator==(const TunnelAction&) const = default;
};

// Punt a copy to userspace (used by "controller" flows and sFlow-style
// sampling).
struct UserspaceAction {
  uint32_t reason = 0;
  bool operator==(const UserspaceAction&) const = default;
};

// ct(zone, commit, nat) followed by recirc(recirc_id) (DESIGN.md §15): run
// the packet through the datapath's connection tracker — look its
// connection up in `zone`, commit it (following its TCP teardown) when
// `commit`, apply the connection's NAT binding per `nat` — stamp the
// resulting ct_state and `recirc_id` into the key and look the packet up
// again: a post-ct megaflow, or an upcall that resumes translation from
// the frozen state `recirc_id` names (ofproto/recirc.h). OVS emits ct and
// recirc as two actions; one here keeps a stateful pipeline's action list
// inline in its entry. Translation stops at ct, so it is always the last
// action. kApply rewrites per an existing binding only; kSrc/kDst (with
// commit) also request a SNAT/DNAT binding toward (nat_addr, nat_port).
struct CtAction {
  enum class Nat : uint8_t { kNone, kApply, kSrc, kDst };
  uint16_t zone = 0;
  bool commit = false;
  Nat nat = Nat::kNone;
  uint32_t nat_addr = 0;
  uint16_t nat_port = 0;
  uint32_t recirc_id = 0;
  bool operator==(const CtAction&) const = default;
};

// Recirculations one packet may take; a packet that would take more is
// dropped where it stands (Datapath::Stats::recirc_depth_drops).
inline constexpr unsigned kMaxRecircDepth = 4;

using DpAction = std::variant<OutputAction, SetFieldAction, TunnelAction,
                              UserspaceAction, CtAction>;

// An empty action list means drop. The list keeps the common length inline
// (the NVP pipelines flatten to three actions), so an entry carries its
// actions without a second heap block and a translation's list moves into
// the entry without allocating.
struct DpActions {
  static constexpr size_t kInline = 3;
  InlineVec<DpAction, kInline> list;

  // True if the packet is forwarded nowhere (no output/tunnel/userspace).
  bool drops() const noexcept {
    for (const DpAction& a : list)
      if (!std::holds_alternative<SetFieldAction>(a)) return false;
    return true;
  }

  // Removes trailing set-field actions that no forwarding action observes
  // (the flattened list often ends with rewrites from a table whose final
  // lookup missed). Keeps revalidation's action comparison canonical.
  void normalize() {
    while (!list.empty() &&
           std::holds_alternative<SetFieldAction>(list.back()))
      list.pop_back();
  }

  bool operator==(const DpActions&) const = default;

  // The list ends in ct: the datapath recirculates its packets.
  bool recirculates() const noexcept {
    return !list.empty() && std::holds_alternative<CtAction>(list.back());
  }
  // The closing ct of a list that recirculates().
  const CtAction& ct() const noexcept {
    return *std::get_if<CtAction>(&list.back());
  }
  uint32_t recirc_id() const noexcept { return ct().recirc_id; }

  // Appends `stage`'s actions without the ct that closes a recirculating
  // list: one stage of a recirculated packet's composed fate.
  void append_stage(const DpActions& stage) {
    const size_t n = stage.list.size() - (stage.recirculates() ? 1 : 0);
    for (size_t i = 0; i < n; ++i) list.push_back(stage.list[i]);
  }
  // Applies the list's set-field actions to `key`: the headers its ct
  // action sees, as translation saw them when it stopped there.
  void apply_set_fields(FlowKey& key) const noexcept {
    for (const DpAction& a : list)
      if (const auto* sf = std::get_if<SetFieldAction>(&a))
        key.set(sf->field, sf->value);
  }

  DpActions& output(uint32_t port) {
    list.push_back(OutputAction{port});
    return *this;
  }
  DpActions& set_field(FieldId f, uint64_t v) {
    list.push_back(SetFieldAction{f, v});
    return *this;
  }
  DpActions& tunnel(uint32_t port, uint64_t tun_id) {
    list.push_back(TunnelAction{port, tun_id});
    return *this;
  }
  DpActions& userspace(uint32_t reason = 0) {
    list.push_back(UserspaceAction{reason});
    return *this;
  }

  std::string to_string() const {
    if (list.empty()) return "drop";
    std::string s;
    for (const DpAction& a : list) {
      if (!s.empty()) s += ",";
      if (const auto* o = std::get_if<OutputAction>(&a))
        s += "output:" + std::to_string(o->port);
      else if (const auto* sf = std::get_if<SetFieldAction>(&a))
        s += std::string("set(") + field_info(sf->field).name + "=" +
             std::to_string(sf->value) + ")";
      else if (const auto* t = std::get_if<TunnelAction>(&a))
        s += "tunnel(port=" + std::to_string(t->port) +
             ",tun_id=" + std::to_string(t->tun_id) + ")";
      else if (const auto* ct = std::get_if<CtAction>(&a))
        s += "ct(zone=" + std::to_string(ct->zone) +
             (ct->commit ? ",commit" : "") +
             (ct->nat == CtAction::Nat::kNone ? "" : ",nat") +
             "),recirc(" + std::to_string(ct->recirc_id) + ")";
      else
        s += "userspace";
    }
    return s;
  }
};

}  // namespace ovs
